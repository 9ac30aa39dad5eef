package cocoa_test

import (
	"context"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/scenario"
)

// visitStats runs cfg under ctx and returns the run's MAC receiver visits
// and sent-frame counters — both sim-deterministic.
func visitStats(t *testing.T, ctx context.Context, cfg cocoa.Config) (visits, sent int64) {
	t.Helper()
	team, err := cocoa.NewTeamContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := team.RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range team.Telemetry().Counters {
		switch c.Name {
		case "mac.receiver_visits":
			visits = c.Value
		case "mac.sent":
			sent = c.Value
		}
	}
	if sent == 0 {
		t.Fatal("run sent no frames")
	}
	return visits, sent
}

// TestIndexPruningFactor is the structural counterpart of BenchmarkSwarm:
// independent of wall clock, the grid must visit at least 5x fewer
// receivers per transmitted frame than the O(n) scan at swarm scale. The
// counters are sim-deterministic, so this is a hard floor, not a timing
// flake.
func TestIndexPruningFactor(t *testing.T) {
	t.Parallel()
	cfg := scenario.SwarmConfig(1000)
	cfg.DurationS = 40
	cfg.Calibration.Samples = 60000

	perFrame := func(ctx context.Context) float64 {
		visits, sent := visitStats(t, ctx, cfg)
		return float64(visits) / float64(sent)
	}
	grid, scan := perFrame(context.Background()), perFrame(cocoa.WithScanIndex(context.Background()))
	t.Logf("visits per frame: grid %.1f, scan %.1f (%.1fx)", grid, scan, scan/grid)
	if scan < 5*grid {
		t.Errorf("grid visits %.1f receivers per frame, scan %.1f: pruning factor %.2f < 5",
			grid, scan, scan/grid)
	}
}

// TestCrashedSwarmVisitsDrop is the Medium.Detach regression test: before
// the crash path detached stations, powered-off robots stayed in the scan
// order and were visited on every frame forever. With half the team
// crashed permanently mid-run, the per-frame visit count must drop well
// below the healthy baseline — under both index settings.
func TestCrashedSwarmVisitsDrop(t *testing.T) {
	t.Parallel()
	for _, index := range []struct {
		name string
		ctx  context.Context
	}{
		{"grid", context.Background()},
		{"scan", cocoa.WithScanIndex(context.Background())},
	} {
		t.Run(index.name, func(t *testing.T) {
			perFrame := func(crash float64) float64 {
				cfg := scenario.QuickFamilies()["cocoa"]
				cfg.Faults.CrashFraction = crash
				cfg.Faults.CrashMeanDownS = 0 // crashed robots never recover
				visits, sent := visitStats(t, index.ctx, cfg)
				return float64(visits) / float64(sent)
			}
			healthy := perFrame(0)
			crashed := perFrame(0.5)
			t.Logf("visits per frame: healthy %.1f, half-crashed %.1f", healthy, crashed)
			// Crash times are uniform over the middle of the run, so the
			// run-wide average lands well under the healthy rate but above
			// the fully compacted one (~0.86x here). Without Detach the
			// ratio is exactly 1.0 — every powered-off radio would still be
			// scanned every frame — so 0.93 separates the two cleanly.
			if crashed > 0.93*healthy {
				t.Errorf("half-crashed swarm still visits %.1f receivers per frame (healthy %.1f): Detach compaction not effective",
					crashed, healthy)
			}
		})
	}
}
