package mrmm

import (
	"math"
	"strings"
	"testing"

	"cocoa/internal/energy"
	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/network"
	"cocoa/internal/sim"
)

func TestValidateTable(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		cfg := DefaultConfig(30)
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"default ok", DefaultConfig(30), ""},
		{"zero max hops", mutate(func(c *Config) { c.MaxHops = 0 }), "MaxHops"},
		{"zero fg timeout", mutate(func(c *Config) { c.FGTimeoutS = 0 }), "FGTimeoutS"},
		{"negative reply min", mutate(func(c *Config) { c.ReplyDelayMinS = -1 }), "reply delay"},
		{"inverted reply range", mutate(func(c *Config) { c.ReplyDelayMaxS = c.ReplyDelayMinS / 2 }), "reply delay"},
		{"negative jitter", mutate(func(c *Config) { c.ForwardJitterMaxS = -0.1 }), "jitter"},
		{"zero link range", mutate(func(c *Config) { c.LinkRangeM = 0 }), "LinkRangeM"},
		{"negative min lifetime", mutate(func(c *Config) { c.MinLifetimeS = -1 }), "MinLifetimeS"},
		{"zero data bytes", mutate(func(c *Config) { c.DataBytes = 0 }), "DataBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	s := sim.New()
	root := sim.NewRNG(1)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	nic := network.NewNIC(s, med, energy.DefaultParams(), 0, parked(geom.Vec2{}))
	bad := DefaultConfig(30)
	bad.MaxHops = 0
	if _, err := New(s, nic, bad, root.Stream("mrmm"), NewFrames(med), func() MobilityInfo {
		return MobilityInfo{}
	}); err == nil {
		t.Error("New accepted an invalid config")
	}
}

// linkLifetime's analytic cases: out of range, relatively static, moving
// apart, and converging — exercised table-driven through one node whose
// own mobility is pinned at the origin.
func TestLinkLifetimeTable(t *testing.T) {
	s := sim.New()
	root := sim.NewRNG(1)
	med, err := mac.NewMedium(s, mac.DefaultConfig(shortRangeModel()), root.Stream("mac"))
	if err != nil {
		t.Fatal(err)
	}
	nic := network.NewNIC(s, med, energy.DefaultParams(), 0, parked(geom.Vec2{}))
	cfg := DefaultConfig(30)
	cfg.LinkRangeM = 100
	p, err := New(s, nic, cfg, root.Stream("mrmm"), NewFrames(med), func() MobilityInfo {
		return MobilityInfo{Pos: geom.Vec2{}, Vel: geom.Vec2{}}
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		other MobilityInfo
		check func(float64) bool
		want  string
	}{
		{
			"out of range", MobilityInfo{Pos: geom.Vec2{X: 150}},
			func(v float64) bool { return v == 0 }, "0",
		},
		{
			"static pair", MobilityInfo{Pos: geom.Vec2{X: 50}},
			func(v float64) bool { return math.IsInf(v, 1) }, "+Inf",
		},
		{
			"receding at 10 m/s", MobilityInfo{Pos: geom.Vec2{X: 50}, Vel: geom.Vec2{X: 10}},
			// 50 m of range margin at 10 m/s.
			func(v float64) bool { return math.Abs(v-5) < 1e-9 }, "5",
		},
		{
			"approaching then receding", MobilityInfo{Pos: geom.Vec2{X: 50}, Vel: geom.Vec2{X: -10}},
			// Crosses the origin region first: 150 m of travel before
			// the link breaks on the far side.
			func(v float64) bool { return math.Abs(v-15) < 1e-9 }, "15",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := p.linkLifetime(tc.other); !tc.check(got) {
				t.Errorf("linkLifetime = %v, want %s", got, tc.want)
			}
		})
	}
}
