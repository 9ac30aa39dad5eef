package cocoa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/obs"
	"cocoa/internal/scenario"
	"cocoa/internal/telemetry"
)

// The spatial neighbor index (DESIGN.md §12) is a performance device with a
// byte-identity contract: every experiment must produce the exact same
// bytes whether the MAC finds receivers through the grid or the O(n)
// reference scan, at any update worker count. This suite is the
// contract's enforcement — it runs the whole registry under both and fails
// on the first differing byte. make check runs it under -race, which
// additionally exercises the index against concurrent update workers. The
// scan is reachable only through the test-only cocoa.WithScanIndex context.

// equivOpts is the quick scale, one run at a time.
var equivOpts = scenario.Options{
	Seed:               1,
	DurationS:          300,
	NumRobots:          12,
	CalibrationSamples: 60000,
	GridCellM:          4,
	Parallelism:        1,
}

// equivWorkers are the flush worker counts the registry suites run at: serial,
// fixed fan-outs, and the CPU budget (0).
var equivWorkers = []int{1, 3, 8, 0}

// TestIndexEquivalenceRegistry runs every registered experiment with the
// grid index and with the reference scan, at every count of equivWorkers,
// and requires byte-identical JSON-marshaled results.
func TestIndexEquivalenceRegistry(t *testing.T) {
	for _, d := range scenario.Experiments() {
		t.Run(d.Name, func(t *testing.T) {
			for _, workers := range equivWorkers {
				ctx := cocoa.WithFlushWorkers(context.Background(), workers)
				marshal := func(ctx context.Context) string {
					res, err := d.Run(ctx, equivOpts)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					return string(b)
				}
				grid := marshal(ctx)
				scan := marshal(cocoa.WithScanIndex(ctx))
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
// both index settings: every sim-deterministic counter must agree. The
// grid run's snapshot, histograms included, must also render as
// exposition text the strict linter accepts.
func TestIndexEquivalenceTelemetry(t *testing.T) {
	t.Parallel()
	snap := func(ctx context.Context) (map[string]int64, telemetry.Snapshot) {
		team, err := cocoa.NewTeamContext(ctx, scenario.QuickFamilies()["faults"])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := team.RunContext(ctx); err != nil {
			t.Fatal(err)
		}
		tel := team.Telemetry()
		out := map[string]int64{}
		for _, c := range tel.Counters {
			if !volatileCounter(c.Name) {
				out[c.Name] = c.Value
			}
		}
		return out, tel
	}

	grid, tel := snap(context.Background())
	scan, _ := snap(cocoa.WithScanIndex(context.Background()))
	var text bytes.Buffer
	if err := obs.WriteMetrics(&text, tel, nil); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.LintReader(&text)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim_heap_depth", "cocoa_flush_busy_robots", "cocoa_beacon_queue_depth"} {
		if exp.Families[name] == nil {
			t.Errorf("exposition lacks the %s histogram", name)
		}
	}
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
