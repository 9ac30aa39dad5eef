package cocoa_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/scenario"
)

// The spatial neighbor index (DESIGN.md §12) is a performance device with a
// byte-identity contract: every experiment must produce the exact same
// bytes whether the MAC finds receivers through the grid or the O(n)
// reference scan, at any localizer worker count. This suite is the
// contract's enforcement — it runs the whole registry under both and fails
// on the first differing byte. make check runs it under -race, which
// additionally exercises the index against concurrent grid workers. The
// scan is reachable only through the test-only cocoa.WithScanIndex context.

// equivOpts is the quick scale with the worker count pinned.
func equivOpts(workers int) scenario.Options {
	return scenario.Options{
		Seed:               1,
		DurationS:          300,
		NumRobots:          12,
		CalibrationSamples: 60000,
		GridCellM:          4,
		UpdateWorkers:      workers,
		Parallelism:        1,
	}
}

// TestIndexEquivalenceRegistry runs every registered experiment with the
// grid index and with the reference scan, at UpdateWorkers 1 and 8, and
// requires byte-identical JSON-marshaled results.
func TestIndexEquivalenceRegistry(t *testing.T) {
	for _, d := range scenario.Experiments() {
		t.Run(d.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				marshal := func(ctx context.Context) string {
					res, err := d.Run(ctx, equivOpts(workers))
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					return string(b)
				}
				grid := marshal(context.Background())
				scan := marshal(cocoa.WithScanIndex(context.Background()))
				if grid != scan {
					t.Errorf("workers=%d: grid and scan results differ\ngrid: %.400s\nscan: %.400s",
						workers, grid, scan)
				}
			}
		})
	}
}

// volatileCounter reports counters that legitimately differ between the
// two index settings: the index's own work and the per-receiver visit
// counts (pruning is the index's whole point). Everything else is
// simulation-deterministic and must match exactly.
func volatileCounter(name string) bool {
	return strings.HasPrefix(name, "mac.index_") || name == "mac.receiver_visits"
}

// TestIndexEquivalenceTelemetry compares full telemetry snapshots of a
// fault-injected run (crashes exercise Detach/re-Attach compaction) under
// both index settings: every sim-deterministic counter must agree.
func TestIndexEquivalenceTelemetry(t *testing.T) {
	t.Parallel()
	snap := func(ctx context.Context) map[string]int64 {
		team, err := cocoa.NewTeamContext(ctx, scenario.QuickFamilies()["faults"])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := team.RunContext(ctx); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, c := range team.Telemetry().Counters {
			if !volatileCounter(c.Name) {
				out[c.Name] = c.Value
			}
		}
		return out
	}

	grid := snap(context.Background())
	scan := snap(cocoa.WithScanIndex(context.Background()))
	if !reflect.DeepEqual(grid, scan) {
		for name, v := range grid {
			if scan[name] != v {
				t.Errorf("counter %s: grid=%d scan=%d", name, v, scan[name])
			}
		}
		for name, v := range scan {
			if _, ok := grid[name]; !ok {
				t.Errorf("counter %s: grid=absent scan=%d", name, v)
			}
		}
	}
}

// TestIndexEquivalenceHighCrash is the adversarial compaction case: half
// the team crashing and recovering churns Detach/re-Attach constantly, the
// regime where a stale grid bucket or a mis-ordered re-insertion would
// surface. The full Result must still be byte-identical.
func TestIndexEquivalenceHighCrash(t *testing.T) {
	cfg := scenario.QuickFamilies()["faults"]
	cfg.Faults.CrashFraction = 0.5
	cfg.Faults.CrashMeanDownS = float64(cfg.BeaconPeriodS)
	run := func(ctx context.Context) string {
		res, err := cocoa.RunContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if grid, scan := run(context.Background()), run(cocoa.WithScanIndex(context.Background())); grid != scan {
		t.Error("high-crash run differs between grid and scan")
	}
}
