package cocoa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// quickCfg is a small, fast deployment shared by the context tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.NumRobots = 10
	cfg.NumEquipped = 5
	cfg.DurationS = 120
	cfg.Calibration.Samples = 40000
	cfg.GridCellM = 8
	return cfg
}

func TestValidateReturnsConfigError(t *testing.T) {
	cases := []struct {
		name  string
		field string
		mut   func(*Config)
	}{
		{"robots", "NumRobots", func(c *Config) { c.NumRobots = 0 }},
		{"equipped", "NumEquipped", func(c *Config) { c.NumEquipped = c.NumRobots + 1 }},
		{"period", "BeaconPeriodS", func(c *Config) { c.BeaconPeriodS = 0 }},
		{"duration", "DurationS", func(c *Config) { c.DurationS = -1 }},
		{"no sampling tick", "SampleIntervalS", func(c *Config) { c.DurationS, c.SampleIntervalS = 0.5, 1 }},
		{"grid", "GridCellM", func(c *Config) { c.GridCellM = 0 }},
		{"radio", "Radio", func(c *Config) { c.Radio.PathLossExp = -1 }},
		{"radio multipath dist", "Radio", func(c *Config) { c.Radio.MultipathDist = 0 }},
		{"radio max sigma", "Radio", func(c *Config) { c.Radio.MaxSigmaDB = -1 }},
		{"radio deep fade", "Radio", func(c *Config) { c.Radio.DeepFadeMeanDB = -60 }},
		{"radio non-finite", "Radio", func(c *Config) { c.Radio.TxPowerDBm = math.Inf(1) }},
		{"negative rest", "RestMinS", func(c *Config) { c.RestMinS = -1 }},
		{"inverted rest", "RestMaxS", func(c *Config) { c.RestMinS, c.RestMaxS = 5, 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("errors.Is(err, ErrInvalidConfig) = false for %v", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("errors.As(*ConfigError) = false for %v", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
			}
			if ce.Reason == "" {
				t.Error("empty Reason")
			}
		})
	}
}

// Calibration inputs that once passed Validate and then panicked or
// exhausted memory building the table (a huge LUT or histogram node count,
// a clamp range of a trillion dB), or silently sounded the wrong distances
// (MaxDist below the nearest sounding), must fail validation naming the
// field, and the run must return that error instead of calibrating.
func TestValidateRejectsCalibrationBlowups(t *testing.T) {
	cases := []struct {
		name  string
		field string
		mut   func(*Config)
	}{
		{"LUT step", "Calibration", func(c *Config) { c.Calibration.LUTStepM = 1e-12 }},
		{"histogram bin", "Calibration", func(c *Config) { c.Calibration.HistBinM = 1e-12 }},
		{"clamp range", "Radio", func(c *Config) { c.Radio.MinRSSIDBm = -1e12 }},
		{"horizon below nearest sounding", "Calibration", func(c *Config) { c.Calibration.MaxDist = 0.2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DurationS = 10
			tc.mut(&cfg)
			var ce *ConfigError
			if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("Validate = %v, want a *ConfigError for %s", err, tc.field)
			}
			if _, err := RunContext(context.Background(), cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("RunContext = %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestConfigErrorMessageNamesField(t *testing.T) {
	err := (&ConfigError{Field: "VMax", Reason: "too slow"}).Error()
	for _, want := range []string{"invalid config", "VMax", "too slow"} {
		if !containsStr(err, want) {
			t.Errorf("message %q missing %q", err, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// RunContext under a context that never fires must be byte-identical to the
// context-free path: the cancellation check reads ctx without touching the
// event calendar or any RNG stream.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := quickCfg()
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	viaCtx, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", viaCtx), fmt.Sprintf("%#v", direct); got != want {
		t.Error("RunContext result differs from Run for the same config")
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, quickCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextDeadlineMidRun(t *testing.T) {
	cfg := DefaultConfig() // paper scale: tens of milliseconds of wall time
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := team.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Error("canceled run returned a partial result")
	}
}

func TestTeamRunsOnlyOnce(t *testing.T) {
	team, err := NewTeam(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := team.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := team.RunContext(context.Background()); err == nil {
		t.Fatal("second RunContext accepted")
	}
}

func TestRunContextNilContext(t *testing.T) {
	res, err := RunContext(nil, quickCfg()) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
}
