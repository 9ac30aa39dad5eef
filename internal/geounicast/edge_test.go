package geounicast

import (
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
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"default ok", DefaultConfig(), ""},
		{"zero ttl", mutate(func(c *Config) { c.NeighborTTLS = 0 }), "NeighborTTLS"},
		{"negative ttl", mutate(func(c *Config) { c.NeighborTTLS = -1 }), "NeighborTTLS"},
		{"zero hop ttl", mutate(func(c *Config) { c.DefaultTTL = 0 }), "DefaultTTL"},
		{"negative payload", mutate(func(c *Config) { c.PayloadBytes = -1 }), "payload"},
		{"negative jitter", mutate(func(c *Config) { c.ForwardJitterMaxS = -0.1 }), "jitter"},
		{"negative ack timeout", mutate(func(c *Config) { c.AckTimeoutS = -1 }), "ARQ"},
		{"negative retries", mutate(func(c *Config) { c.MaxRetries = -1 }), "ARQ"},
		{"retries without timeout", mutate(func(c *Config) { c.AckTimeoutS = 0 }), "AckTimeoutS"},
		{"no arq ok", mutate(func(c *Config) { c.MaxRetries = 0; c.AckTimeoutS = 0 }), ""},
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
	bad := DefaultConfig()
	bad.DefaultTTL = 0
	if _, err := New(s, nic, bad, root.Stream("uni"), func() geom.Vec2 { return geom.Vec2{} }); err == nil {
		t.Error("New accepted an invalid config")
	}
}

func TestSendHelloFailsWhilePoweredOff(t *testing.T) {
	b := newBed(t, 3, []geom.Vec2{{X: 0}, {X: 10}})
	b.agents[0].nic.PowerOff()
	if err := b.agents[0].SendHello(); err == nil {
		t.Error("SendHello succeeded on a powered-off radio")
	}
	if got := b.agents[0].Stats().HellosSent; got != 0 {
		t.Errorf("HellosSent = %d after failed send, want 0", got)
	}
}

// Handlers share the NIC dispatch table with other protocols; a frame
// whose payload is not ours must be ignored without side effects.
func TestHandlersIgnoreForeignPayloads(t *testing.T) {
	b := newBed(t, 3, []geom.Vec2{{X: 0}, {X: 10}})
	a := b.agents[0]
	for _, f := range []mac.Frame{
		{Kind: network.KindHello, Payload: "not a hello"},
		{Kind: network.KindUnicast, Payload: 42},
		{Kind: network.KindAck, Payload: struct{}{}},
	} {
		switch f.Kind {
		case network.KindHello:
			a.onHello(f, -60)
		case network.KindUnicast:
			a.onUnicast(f, -60)
		case network.KindAck:
			a.onAck(f, -60)
		}
	}
	if n := a.NeighborCount(); n != 0 {
		t.Errorf("foreign hello created %d neighbor entries", n)
	}
	if s := a.Stats(); s.Delivered != 0 || s.Duplicates != 0 {
		t.Errorf("foreign unicast moved counters: %+v", s)
	}
}

// A unicast naming a different next hop must not be accepted or ACKed.
func TestOnUnicastIgnoresOtherNextHop(t *testing.T) {
	b := newBed(t, 3, []geom.Vec2{{X: 0}, {X: 10}})
	a := b.agents[0]
	p := Packet{Src: 1, Seq: 1, Dst: a.id, NextHop: a.id + 1}
	a.onUnicast(mac.Frame{Kind: network.KindUnicast, Payload: p}, -60)
	if s := a.Stats(); s.Delivered != 0 {
		t.Errorf("packet for another hop delivered: %+v", s)
	}
}
