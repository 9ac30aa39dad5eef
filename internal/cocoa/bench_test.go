package cocoa

import (
	"context"
	"math"
	"testing"

	"cocoa/internal/geom"
)

// swarmConfig is scenario.SwarmConfig, which this package's own tests
// cannot import: n robots at the paper's density, half equipped, EKF
// localizers, short beacon-dense runs (TestSwarmShapeMatchesScenario pins
// the two together).
func swarmConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.NumRobots = n
	cfg.NumEquipped = max(n/2, 1)
	cfg.Area = geom.Square(200 * math.Sqrt(float64(n)/50))
	cfg.Radio.TxPowerDBm = -10
	cfg.Localizer = LocalizerEKF
	cfg.DurationS = 120
	cfg.BeaconPeriodS = 20
	return cfg
}

// benchConfig is a mid-size deployment: big enough that beacon application
// dominates, small enough that one iteration stays in milliseconds.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.NumRobots = 20
	cfg.NumEquipped = 10
	cfg.DurationS = 200
	cfg.BeaconPeriodS = 50
	cfg.GridCellM = 2
	cfg.Calibration.Samples = 60000
	return cfg
}

// benchRun runs cfg b.N times with the given flush worker count (0: the CPU
// budget).
func benchRun(b *testing.B, cfg Config, workers int) {
	ctx := WithFlushWorkers(context.Background(), workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunContext(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Fixes == 0 {
			b.Fatal("no fixes")
		}
	}
}

// BenchmarkTeamStepSerial pins beacon flushes to one goroutine — the
// baseline the parallel variant is judged against.
func BenchmarkTeamStepSerial(b *testing.B) {
	benchRun(b, benchConfig(), 1)
}

// BenchmarkTeamStepParallel flushes on the CPU budget: a lone run claims
// every other CPU, exercising the fan-out path end to end.
func BenchmarkTeamStepParallel(b *testing.B) {
	benchRun(b, benchConfig(), 0)
}

// BenchmarkNewTeamSwarm times team set-up alone on a warm slot at the
// 1000-robot swarm scale: what NewTeam costs, and allocates, once the
// slot's robots exist. The root package's BenchmarkNewTeamSwarm1000 is its
// cold counterpart.
func BenchmarkNewTeamSwarm(b *testing.B) {
	cfg := swarmConfig(1000)
	var p slotPool
	if _, err := p.run(nil, cfg); err != nil { // warm the slot and the calibration cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team, err := p.team(cfg, reference{})
		if err != nil {
			b.Fatal(err)
		}
		p.put(team.slot)
	}
}
