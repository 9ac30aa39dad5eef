package difftest

import (
	"fmt"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/scenario"
	"cocoa/internal/sim"
)

// suiteConfigs returns the configs the differential resume suite covers:
// the rob-faults family (lossy bursty channel + crashes), the swarm-scale
// MAC config, and two golden figure families (full CoCoA and
// odometry-only). Each is shrunk to a 120 s / 12-tick run so interrupting
// at every sampling tick stays affordable under -race.
func suiteConfigs() map[string]cocoa.Config {
	fams := scenario.QuickFamilies()
	configs := map[string]cocoa.Config{
		"rob-faults": fams["faults"],
		"cocoa":      fams["cocoa"],
		"odometry":   fams["odometry"],
		"scale":      scenario.SwarmConfig(40),
	}
	for name, cfg := range configs {
		cfg.DurationS = 120
		cfg.SampleIntervalS = 10
		configs[name] = cfg
	}
	return configs
}

// TestResumeEveryTick is the differential resume suite: for every config
// and worker-pool width, interrupting at every sampling tick and resuming
// must reproduce the uninterrupted run byte-for-byte (result and
// telemetry). Each run's telemetry is its own team's, so the cases run in
// parallel.
func TestResumeEveryTick(t *testing.T) {
	for name, cfg := range suiteConfigs() {
		for _, workers := range []int{1, 8} {
			cfg := cfg
			cfg.UpdateWorkers = workers
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				t.Parallel()
				Run(t, cfg)
			})
		}
	}
}

// TestSuiteTickCount pins the interruption density: the 120 s / 10 s
// configs must expose 12 sampling ticks, so the suite above really does
// cut the run at 12 distinct points, not a degenerate few.
func TestSuiteTickCount(t *testing.T) {
	for name, cfg := range suiteConfigs() {
		if cfg.DurationS != 120 || cfg.SampleIntervalS != sim.Time(10) {
			t.Fatalf("%s: suite config not shrunk: duration=%v sample=%v", name, cfg.DurationS, cfg.SampleIntervalS)
		}
	}
}
