package coopos

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumRobots = 16
	cfg.DurationS = 400
	cfg.PhaseS = 40
	cfg.GridCellM = 4
	cfg.Calibration.Samples = 60000
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few robots", func(c *Config) { c.NumRobots = 4 }},
		{"degenerate area", func(c *Config) { c.Area.Max = c.Area.Min }},
		{"vmax floor", func(c *Config) { c.VMax = 0.05 }},
		{"zero phase", func(c *Config) { c.PhaseS = 0 }},
		{"zero duration", func(c *Config) { c.DurationS = 0 }},
		{"zero sampling", func(c *Config) { c.SampleIntervalS = 0 }},
		{"zero grid", func(c *Config) { c.GridCellM = 0 }},
		{"zero range", func(c *Config) { c.MaxRangeM = 0 }},
		{"bad radio", func(c *Config) { c.Radio.BitrateBps = 0 }},
		{"bad odometry", func(c *Config) { c.Odometry.DispSigmaPerSec = -1 }},
		{"bad calibration", func(c *Config) { c.Calibration.Samples = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("accepted invalid config")
			}
		})
	}
}

func TestRunProducesFixes(t *testing.T) {
	res, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes == 0 {
		t.Fatal("no cooperative fixes in 10 phases")
	}
	if len(res.Times) == 0 || len(res.Times) != len(res.AvgError) {
		t.Fatalf("series malformed: %d/%d", len(res.Times), len(res.AvgError))
	}
	for i, v := range res.AvgError {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("degenerate error %v at %d", v, i)
		}
	}
}

// The defining property of Cooperative Positioning: fixes inherit the
// landmarks' drift, so the team's error accumulates over phases — in
// contrast to CoCoA, whose anchors never drift. The accumulation is a
// common-mode random walk, strongest with few landmarks, so the test uses
// a small team and averages over seeds.
func TestErrorAccumulatesAcrossPhases(t *testing.T) {
	var early, late float64
	const seeds = 3
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := testConfig()
		cfg.NumRobots = 10
		cfg.DurationS = 1800
		cfg.PhaseS = 30
		cfg.Seed = seed
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		early += windowMean(res, 100, 400)
		late += windowMean(res, 1400, 1800)
	}
	early /= seeds
	late /= seeds
	if late <= 1.3*early {
		t.Errorf("error did not accumulate: early %.2f m, late %.2f m", early, late)
	}
}

// Landmark averaging suppresses the common-mode drift: a large team
// accumulates far slower than a small one.
func TestMoreLandmarksSlowAccumulation(t *testing.T) {
	lateFor := func(n int) float64 {
		var sum float64
		const seeds = 3
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := testConfig()
			cfg.NumRobots = n
			cfg.DurationS = 1800
			cfg.PhaseS = 30
			cfg.Seed = seed
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum += windowMean(res, 1400, 1800)
		}
		return sum / seeds
	}
	small, large := lateFor(10), lateFor(50)
	if large >= small {
		t.Errorf("50-robot late error %.1f m not below 10-robot %.1f m", large, small)
	}
}

func windowMean(res *Result, lo, hi float64) float64 {
	var s float64
	n := 0
	for i, t := range res.Times {
		if t >= lo && t <= hi {
			s += res.AvgError[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Cooperative Positioning starts from known positions, so it beats
// odometry-only early on: the first fixes keep error near the ranging
// noise instead of pure dead-reckoning drift.
func TestBetterThanNothingEarly(t *testing.T) {
	res, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if early := windowMean(res, 50, 150); early > 30 {
		t.Errorf("early error %.1f m implausibly high for a scheme with true initial positions", early)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanError() != b.MeanError() {
		t.Errorf("same seed diverged: %v vs %v", a.MeanError(), b.MeanError())
	}
}

func TestResultHelpers(t *testing.T) {
	empty := &Result{}
	if !math.IsNaN(empty.MeanError()) || !math.IsNaN(empty.FinalError()) {
		t.Error("empty result stats must be NaN")
	}
	r := &Result{Times: []float64{1, 2}, AvgError: []float64{2, 4}}
	if r.MeanError() != 3 || r.FinalError() != 4 {
		t.Errorf("helpers: mean=%v final=%v", r.MeanError(), r.FinalError())
	}
}

// stepCtx reports cancellation from its cancelAt-th Err check on: a
// deterministic stand-in for a cancel that lands mid-run.
type stepCtx struct {
	context.Context
	checks, cancelAt int
}

func (c *stepCtx) Err() error {
	c.checks++
	if c.checks >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// A cancel that lands before or during the run stops it at the next check
// (one before set-up, then one per sampling step) instead of letting it
// finish; a context that never fires changes nothing.
func TestRunCanceledMidRun(t *testing.T) {
	cfg := testConfig()
	steps := int(float64(cfg.DurationS) / float64(cfg.SampleIntervalS))
	for _, at := range []int{1, steps / 2} {
		ctx := &stepCtx{Context: context.Background(), cancelAt: at}
		res, err := Run(ctx, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel at check %d: Run = (%v, %v), want (nil, context.Canceled)", at, res, err)
		}
		if ctx.checks != at {
			t.Errorf("cancel at check %d: run went on to check %d", at, ctx.checks)
		}
	}

	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(&stepCtx{Context: context.Background(), cancelAt: steps + 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a run under a context that never fired differs from an unwatched run")
	}
}
