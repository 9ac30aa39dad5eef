package cocoa

import (
	"errors"
	"math"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// testConfig returns a reduced-scale configuration that keeps the cocoa
// package tests fast while exercising the full stack.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumRobots = 12
	cfg.NumEquipped = 6
	cfg.DurationS = 300
	cfg.BeaconPeriodS = 50
	cfg.GridCellM = 4
	cfg.Calibration.Samples = 60000
	return cfg
}

func TestModeString(t *testing.T) {
	tests := []struct {
		m    Mode
		want string
	}{
		{ModeOdometryOnly, "odometry-only"},
		{ModeRFOnly, "rf-only"},
		{ModeCombined, "cocoa"},
		{Mode(9), "Mode(9)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumRobots != 50 || cfg.NumEquipped != 25 {
		t.Errorf("robots = %d/%d, want 50/25", cfg.NumRobots, cfg.NumEquipped)
	}
	if got := cfg.Area.Area(); got != 40000 {
		t.Errorf("area = %v m^2, want 40000", got)
	}
	if cfg.TransmitPeriodS != 3 || cfg.BeaconsPerWindow != 3 {
		t.Errorf("t = %v, k = %d; want 3, 3", cfg.TransmitPeriodS, cfg.BeaconsPerWindow)
	}
	if cfg.DurationS != 1800 {
		t.Errorf("duration = %v, want 1800", cfg.DurationS)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero robots", func(c *Config) { c.NumRobots = 0 }},
		{"equipped above robots", func(c *Config) { c.NumEquipped = 99 }},
		{"negative equipped", func(c *Config) { c.NumEquipped = -1 }},
		{"rf without equipped", func(c *Config) { c.NumEquipped = 0 }},
		{"degenerate area", func(c *Config) { c.Area.Max = c.Area.Min }},
		{"infinite area", func(c *Config) {
			c.Area = geom.Rect{Min: geom.Vec2{X: -1e308, Y: -1e308}, Max: geom.Vec2{X: 1e308, Y: 1e308}}
		}},
		{"vmax at floor", func(c *Config) { c.VMax = 0.1 }},
		{"zero period", func(c *Config) { c.BeaconPeriodS = 0 }},
		{"window above period", func(c *Config) { c.TransmitPeriodS = c.BeaconPeriodS + 1 }},
		{"zero beacons", func(c *Config) { c.BeaconsPerWindow = 0 }},
		{"zero grid", func(c *Config) { c.GridCellM = 0 }},
		{"bad mode", func(c *Config) { c.Mode = Mode(0) }},
		{"zero duration", func(c *Config) { c.DurationS = 0 }},
		{"zero sampling", func(c *Config) { c.SampleIntervalS = 0 }},
		{"bad radio", func(c *Config) { c.Radio.BitrateBps = 0 }},
		{"bad energy", func(c *Config) { c.Energy.IdleW = -1 }},
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

	// A NaN passes every range rule by failing its comparison, and an
	// infinity passes every rule without an upper bound; each is rejected
	// as a *ConfigError naming its field.
	nan, inf := math.NaN(), math.Inf(1)
	nonFinite := []struct {
		name   string
		field  string
		mutate func(*Config)
	}{
		{"nan vmax", "VMax", func(c *Config) { c.VMax = nan }},
		{"nan rest min", "RestMinS", func(c *Config) { c.RestMinS = sim.Time(nan) }},
		{"nan rest max", "RestMaxS", func(c *Config) { c.RestMaxS = sim.Time(nan) }},
		{"nan period", "BeaconPeriodS", func(c *Config) { c.BeaconPeriodS = sim.Time(nan) }},
		{"inf period", "BeaconPeriodS", func(c *Config) { c.BeaconPeriodS = sim.Time(inf) }},
		{"nan window", "TransmitPeriodS", func(c *Config) { c.TransmitPeriodS = sim.Time(nan) }},
		{"nan grid", "GridCellM", func(c *Config) { c.GridCellM = nan }},
		{"inf grid", "GridCellM", func(c *Config) { c.GridCellM = inf }},
		{"nan duration", "DurationS", func(c *Config) { c.DurationS = sim.Time(nan) }},
		{"inf duration", "DurationS", func(c *Config) { c.DurationS = sim.Time(inf) }},
		{"nan sampling", "SampleIntervalS", func(c *Config) { c.SampleIntervalS = sim.Time(nan) }},
		{"nan clock drift", "ClockDriftSigmaS", func(c *Config) { c.ClockDriftSigmaS = nan }},
		{"inf clock drift", "ClockDriftSigmaS", func(c *Config) { c.ClockDriftSigmaS = inf }},
		{"nan fail time", "FailAtS", func(c *Config) { c.FailAtS = sim.Time(nan) }},
		{"inf fail time", "FailAtS", func(c *Config) { c.FailAtS = sim.Time(inf) }},
		{"nan terrain", "TerrainAmplitude", func(c *Config) { c.TerrainAmplitude = nan }},
		{"inf terrain", "TerrainAmplitude", func(c *Config) { c.TerrainAmplitude = inf }},
		{"nan terrain cell", "TerrainCellM", func(c *Config) { c.TerrainCellM = nan }},
	}
	for _, tt := range nonFinite {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			var ce *ConfigError
			if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != tt.field {
				t.Errorf("Validate = %v, want a *ConfigError naming %s", err, tt.field)
			}
		})
	}
}

func TestOdometryOnlyDoesNotNeedEquipped(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeOdometryOnly
	cfg.NumEquipped = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("odometry-only with zero equipped rejected: %v", err)
	}
}

func TestCombinedRunEndToEnd(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 || len(res.AvgError) != len(res.Times) {
		t.Fatalf("series lengths: %d times, %d errors", len(res.Times), len(res.AvgError))
	}
	if got := len(res.TrackedIDs); got != 6 {
		t.Errorf("tracked %d robots, want the 6 unequipped", got)
	}
	if res.Fixes == 0 {
		t.Error("no RF fixes in 300 s with T=50")
	}
	if res.SyncsReceived == 0 {
		t.Error("no SYNC messages delivered over MRMM")
	}
	if res.BeaconsApplied == 0 {
		t.Error("no beacons reached the Bayesian grids")
	}
	if res.TotalEnergyJ <= 0 {
		t.Error("no energy accounted")
	}
	if s := res.EnergySavings(); s <= 1 {
		t.Errorf("energy savings = %v, want > 1 with coordination", s)
	}
	// Steady-state accuracy: after the first couple of windows the
	// average error must be far below the uniform-prior baseline (~77 m).
	if got := res.ErrorAt(250); got > 30 {
		t.Errorf("steady-state avg error = %.1f m, want well below 30", got)
	}
	if rate := res.FixRate(); rate < 0.5 {
		t.Errorf("fix rate = %v, want most windows to fix", rate)
	}
}

func TestOdometryOnlyRun(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeOdometryOnly
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.TrackedIDs); got != cfg.NumRobots {
		t.Errorf("tracked %d, want all %d robots", got, cfg.NumRobots)
	}
	if res.MAC.Sent != 0 {
		t.Errorf("odometry-only sent %d frames, want 0", res.MAC.Sent)
	}
	// The only radio energy is the one-time power-off transition per card.
	maxOff := float64(cfg.NumRobots) * cfg.Energy.TransitionJ
	if res.TotalEnergyJ > maxOff+1e-9 {
		t.Errorf("odometry-only consumed %v J of radio energy, want <= %v (power-off only)",
			res.TotalEnergyJ, maxOff)
	}
	// Error starts near zero (true initial position) and grows.
	if first := res.AvgError[0]; first > 2 {
		t.Errorf("initial odometry error = %v, want ~0", first)
	}
	last := res.AvgError[len(res.AvgError)-1]
	if last < res.AvgError[0] {
		t.Error("odometry error did not grow")
	}
}

func TestRFOnlyRun(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeRFOnly
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes == 0 {
		t.Fatal("RF-only produced no fixes")
	}
	// Before the first window the estimate is the uniform-prior mean;
	// after fixes it must improve dramatically.
	if early, late := res.AvgError[0], res.ErrorAt(260); late >= early {
		t.Errorf("RF-only error did not improve: t0=%.1f, t260=%.1f", early, late)
	}
}

// The paper's central comparison (Figure 7): CoCoA beats RF-only, and both
// beat odometry-only at the end of a long run.
func TestModeOrdering(t *testing.T) {
	meanTail := func(mode Mode) float64 {
		cfg := testConfig()
		cfg.Mode = mode
		cfg.DurationS = 600
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Average the second half, past the cold start.
		var s float64
		n := 0
		for i, ti := range res.Times {
			if ti > 300 {
				s += res.AvgError[i]
				n++
			}
		}
		return s / float64(n)
	}
	cocoaErr := meanTail(ModeCombined)
	rfErr := meanTail(ModeRFOnly)
	odoErr := meanTail(ModeOdometryOnly)
	if cocoaErr >= rfErr {
		t.Errorf("CoCoA %.1f m not better than RF-only %.1f m", cocoaErr, rfErr)
	}
	if rfErr >= odoErr {
		t.Errorf("RF-only %.1f m not better than odometry-only %.1f m at 10 min", rfErr, odoErr)
	}
}

func TestUncoordinatedNoSavings(t *testing.T) {
	cfg := testConfig()
	cfg.Coordinated = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.EnergySavings(); math.Abs(s-1) > 1e-9 {
		t.Errorf("savings without coordination = %v, want exactly 1", s)
	}
	if res.MAC.MissedAsleep != 0 {
		t.Errorf("frames missed asleep without coordination: %d", res.MAC.MissedAsleep)
	}
}

func TestCoordinationSavesEnergy(t *testing.T) {
	base := testConfig()
	coord, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	uncfg := base
	uncfg.Coordinated = false
	uncoord, err := Run(uncfg)
	if err != nil {
		t.Fatal(err)
	}
	if coord.TotalEnergyJ >= uncoord.TotalEnergyJ {
		t.Errorf("coordinated %.0f J >= uncoordinated %.0f J", coord.TotalEnergyJ, uncoord.TotalEnergyJ)
	}
	// The counterfactual from the coordinated run should approximate the
	// real uncoordinated measurement (same schedule, no sleeping).
	ratio := coord.NoSleepEnergyJ / uncoord.TotalEnergyJ
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("counterfactual %.0f J vs measured %.0f J (ratio %.2f)",
			coord.NoSleepEnergyJ, uncoord.TotalEnergyJ, ratio)
	}
}

func TestSecondaryBeaconsRun(t *testing.T) {
	cfg := testConfig()
	cfg.SecondaryBeacons = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes == 0 {
		t.Fatal("no fixes with secondary beacons")
	}
	// Secondary beacons add traffic: more beacons must be applied than in
	// the baseline run.
	baseRes, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BeaconsApplied <= baseRes.BeaconsApplied {
		t.Errorf("secondary beacons did not add beacon traffic: %d <= %d",
			res.BeaconsApplied, baseRes.BeaconsApplied)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanError() != b.MeanError() {
		t.Errorf("same seed, different results: %v vs %v", a.MeanError(), b.MeanError())
	}
	if a.TotalEnergyJ != b.TotalEnergyJ {
		t.Errorf("same seed, different energy: %v vs %v", a.TotalEnergyJ, b.TotalEnergyJ)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := testConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanError() == b.MeanError() {
		t.Error("different seeds produced identical results")
	}
}

func TestTeamRunsOnce(t *testing.T) {
	team, err := NewTeam(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := team.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := team.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestTableExposed(t *testing.T) {
	team, err := NewTeam(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if team.Table() == nil {
		t.Error("no calibration table in RF mode")
	}
	cfg := testConfig()
	cfg.Mode = ModeOdometryOnly
	odoTeam, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if odoTeam.Table() != nil {
		t.Error("odometry-only mode built a calibration table")
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MeanError(); math.IsNaN(m) || m <= 0 {
		t.Errorf("MeanError = %v", m)
	}
	if m := res.MaxAvgError(); m < res.MeanError() {
		t.Errorf("MaxAvgError %v below mean %v", m, res.MeanError())
	}
	cdf, err := res.ErrorCDFAt(250)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Len() != len(res.TrackedIDs) {
		t.Errorf("CDF over %d robots, want %d", cdf.Len(), len(res.TrackedIDs))
	}
	if q := cdf.Quantile(0.5); math.IsNaN(q) || q < 0 {
		t.Errorf("median error = %v", q)
	}
}

func TestLocalizerKindString(t *testing.T) {
	tests := []struct {
		k    LocalizerKind
		want string
	}{
		{LocalizerGrid, "grid"},
		{LocalizerParticle, "particle"},
		{LocalizerKind(7), "LocalizerKind(7)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestParticleBackendRun(t *testing.T) {
	cfg := testConfig()
	cfg.Localizer = LocalizerParticle
	cfg.Particles = 800
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes == 0 {
		t.Fatal("particle backend produced no fixes")
	}
	// Both backends consume the same beacons and should land in the same
	// accuracy regime.
	gridRes, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanError() > 3*gridRes.MeanError()+10 {
		t.Errorf("particle error %.1f m wildly above grid %.1f m",
			res.MeanError(), gridRes.MeanError())
	}
}

func TestParticleBackendNeedsParticles(t *testing.T) {
	cfg := testConfig()
	cfg.Localizer = LocalizerParticle
	cfg.Particles = 0
	if err := cfg.Validate(); err == nil {
		t.Error("accepted particle backend without particles")
	}
}

func TestClockDriftWithoutSyncDegrades(t *testing.T) {
	// Preprogrammed schedule + drifting clocks: over enough periods the
	// timer error exceeds the window and robots miss beacons. SYNC
	// prevents that on the same drift.
	base := testConfig()
	base.DurationS = 600
	base.ClockDriftSigmaS = 1.5

	noSync := base
	noSync.DisableSync = true
	resNoSync, err := Run(noSync)
	if err != nil {
		t.Fatal(err)
	}
	resSync, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if resSync.FixRate() < resNoSync.FixRate() {
		t.Errorf("SYNC did not help under drift: with=%.2f without=%.2f",
			resSync.FixRate(), resNoSync.FixRate())
	}
	if resNoSync.FixRate() > 0.95 {
		t.Errorf("drift without SYNC barely hurt (fix rate %.2f); the "+
			"synchronization machinery would be pointless", resNoSync.FixRate())
	}
}

func TestDisableSyncZeroDriftStillWorks(t *testing.T) {
	cfg := testConfig()
	cfg.DisableSync = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncsReceived != 0 {
		t.Errorf("SYNCs delivered despite DisableSync: %d", res.SyncsReceived)
	}
	if res.FixRate() < 0.9 {
		t.Errorf("preprogrammed schedule with perfect clocks should work: %.2f", res.FixRate())
	}
	if s := res.EnergySavings(); s <= 1 {
		t.Errorf("preprogrammed robots must still sleep: savings %v", s)
	}
}

func TestNegativeClockDriftRejected(t *testing.T) {
	cfg := testConfig()
	cfg.ClockDriftSigmaS = -1
	if err := cfg.Validate(); err == nil {
		t.Error("accepted negative drift")
	}
}

func TestEmptyResultHelpers(t *testing.T) {
	r := newResult(testConfig(), []int{6, 7})
	if !math.IsNaN(r.MeanError()) || !math.IsNaN(r.MaxAvgError()) {
		t.Error("empty result stats must be NaN")
	}
	if !math.IsNaN(r.FixRate()) {
		t.Error("empty FixRate must be NaN")
	}
	if !math.IsNaN(r.EnergySavings()) {
		t.Error("zero-energy savings must be NaN")
	}
	if _, err := r.ErrorCDFAt(10); err == nil {
		t.Error("ErrorCDFAt on empty result succeeded")
	}
}

// ErrorAt and ErrorCDFAt pick their sample with one rule: the instant
// closest to t, the earlier one on an exact tie, clamped to the ends.
func TestErrorAtNearestSampleRule(t *testing.T) {
	r := &Result{
		Times:    []float64{0, 10, 20},
		AvgError: []float64{1, 2, 3},
		PerRobot: [][]float64{{1, 2, 3}, {4, 5, 6}},
	}
	cases := []struct {
		name   string
		t      float64
		avg    float64
		lo, hi float64 // the per-robot errors the CDF snapshot holds
	}{
		{"exact sample", 10, 2, 2, 5},
		{"nearer later", 6, 2, 2, 5},
		{"nearer earlier", 14, 2, 2, 5},
		{"tie picks earlier", 5, 1, 1, 4},
		{"second tie picks earlier", 15, 2, 2, 5},
		{"before first clamps", -7, 1, 1, 4},
		{"after last clamps", 99, 3, 3, 6},
		{"-Inf clamps to first", math.Inf(-1), 1, 1, 4},
		{"+Inf clamps to last", math.Inf(1), 3, 3, 6},
		{"huge t clamps to last", 1e308, 3, 3, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.ErrorAt(tc.t); got != tc.avg {
				t.Errorf("ErrorAt(%v) = %v, want %v", tc.t, got, tc.avg)
			}
			cdf, err := r.ErrorCDFAt(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := cdf.Quantile(0), cdf.Quantile(1); cdf.Len() != 2 || lo != tc.lo || hi != tc.hi {
				t.Errorf("ErrorCDFAt(%v) spans [%v, %v] over %d robots, want [%v, %v] over 2",
					tc.t, lo, hi, cdf.Len(), tc.lo, tc.hi)
			}
		})
	}

	var empty Result
	if got := empty.ErrorAt(10); !math.IsNaN(got) {
		t.Errorf("empty ErrorAt = %v, want NaN", got)
	}
	if _, err := empty.ErrorCDFAt(10); err == nil {
		t.Error("empty ErrorCDFAt succeeded")
	}
}
