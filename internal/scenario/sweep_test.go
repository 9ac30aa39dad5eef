package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cocoa/internal/cocoa"
)

// tinyConfig is a deployment small enough to run a handful of times per
// test; seed tells the runs apart.
func tinyConfig(seed int64) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 4
	cfg.DurationS = 60
	cfg.BeaconPeriodS = 20
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 20000
	cfg.Seed = seed
	return cfg
}

// tinyRow is what the sweep tests keep of one run: its seed, to check the
// row landed at its point, and copies of what a retained Result would show.
type tinyRow struct {
	Seed     int64
	AvgError []float64
	EnergyJ  float64
}

// directRows runs each seed's tiny config on its own, outside any sweep,
// and keeps the row a sweep should build for it.
func directRows(t *testing.T, seeds []int64) []tinyRow {
	t.Helper()
	rows := make([]tinyRow, len(seeds))
	for i, seed := range seeds {
		res, err := cocoa.Run(tinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = tinyRow{seed, res.AvgError, res.TotalEnergyJ}
	}
	return rows
}

// tinyRowOf copies what a tinyRow keeps out of a live Result, so the row
// stays valid after the sweep recycles it.
func tinyRowOf(seed int64, _ cocoa.Config, res *cocoa.Result) tinyRow {
	return tinyRow{seed, slices.Clone(res.AvgError), res.TotalEnergyJ}
}

// The engine-level determinism guarantee: the same seeded points yield
// identical rows, in point order, whether the sweep runs them serially or
// on a pool, and those rows equal what a direct run of each config yields.
func TestSweepRowsIdenticalAcrossParallelism(t *testing.T) {
	seeds := []int64{1, 2, 3}
	want := directRows(t, seeds)
	for _, par := range []int{0, 1, 4} {
		got, err := sweep(context.Background(), Options{Parallelism: par}, seeds, tinyConfig, tinyRowOf)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: rows differ from direct runs in point order", par)
		}
	}
}

// sweep builds every point's row exactly once, from that point's config and
// its live Result. Building a row before its Result is recycled, and
// recycling it for the next run, corrupts no neighbor.
func TestSweepBuildsEachRowOnceFromLiveResult(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	want := directRows(t, seeds)
	for _, par := range []int{0, 3} {
		var mu sync.Mutex
		calls := map[int64]int{}
		got, err := sweep(context.Background(), Options{Parallelism: par}, seeds, tinyConfig,
			func(seed int64, cfg cocoa.Config, res *cocoa.Result) tinyRow {
				mu.Lock()
				calls[seed]++
				mu.Unlock()
				if cfg.Seed != seed {
					t.Errorf("row for point %d got the config of seed %d", seed, cfg.Seed)
				}
				return tinyRowOf(seed, cfg, res)
			})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for _, seed := range seeds {
			if calls[seed] != 1 {
				t.Errorf("parallelism %d: point %d built %d rows", par, seed, calls[seed])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: rows differ from direct runs", par)
		}
	}
}

// A failed run comes back wrapped with its point's index, and no row is
// built for it.
func TestSweepPropagatesRunError(t *testing.T) {
	_, err := sweep(context.Background(), Options{}, []int{0, 1},
		func(i int) cocoa.Config {
			cfg := tinyConfig(1)
			if i == 1 {
				cfg.NumRobots = 0
			}
			return cfg
		},
		func(i int, _ cocoa.Config, _ *cocoa.Result) int {
			if i == 1 {
				t.Error("row built for the failed run")
			}
			return i
		})
	if !errors.Is(err, cocoa.ErrInvalidConfig) || !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("err = %v, want job 1's invalid-config error", err)
	}
}

// A sweep releases every Result once its row is built, and a later run
// reuses the released buffers in place. A Series kept from one experiment
// must therefore own its slices: running another sweep must leave it as it
// was.
func TestSweepSeriesOutliveReleasedResults(t *testing.T) {
	opts := fastOpts()
	series, err := RunFig6(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprintf("%#v", series)
	opts.Seed++
	if _, err := RunFig6(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprintf("%#v", series); after != before {
		t.Fatal("a later sweep overwrote a kept Fig 6 series")
	}
}
