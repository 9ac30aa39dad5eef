package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"cocoa/internal/cocoa"
)

func smallSweep(n int) []cocoa.Config {
	cfgs := make([]cocoa.Config, n)
	for i := range cfgs {
		cfg := cocoa.DefaultConfig()
		cfg.NumRobots = 8
		cfg.NumEquipped = 4
		cfg.DurationS = 60
		cfg.BeaconPeriodS = 20
		cfg.GridCellM = 8
		cfg.Calibration.Samples = 20000
		cfg.Seed = int64(i + 1)
		cfgs[i] = cfg
	}
	return cfgs
}

// RunsEach must hand every config's result to fn exactly once, and the
// scalars extracted there must match what the retaining Runs path computes
// — recycling a result after fn returns must not corrupt a neighbor.
func TestRunsEachMatchesRuns(t *testing.T) {
	cfgs := smallSweep(4)
	retained, err := Runs(context.Background(), Options{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{0, 3} {
		var mu sync.Mutex
		seen := map[int]int{}
		got := make([]float64, len(cfgs))
		err := RunsEach(context.Background(), Options{Parallelism: par}, cfgs,
			func(i int, res *cocoa.Result) error {
				mu.Lock()
				seen[i]++
				mu.Unlock()
				got[i] = res.MeanError()
				return nil
			})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range cfgs {
			if seen[i] != 1 {
				t.Fatalf("parallelism %d: config %d streamed %d times", par, i, seen[i])
			}
			if got[i] != retained[i].MeanError() {
				t.Fatalf("parallelism %d: config %d mean %v, Runs says %v",
					par, i, got[i], retained[i].MeanError())
			}
		}
	}
}

// An fn error fails the sweep exactly like a run error, wrapped with its
// job index.
func TestRunsEachPropagatesFnError(t *testing.T) {
	boom := errors.New("boom")
	cfgs := smallSweep(2)
	err := RunsEach(context.Background(), Options{}, cfgs,
		func(i int, _ *cocoa.Result) error {
			if i == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// A run error (here an invalid config) fails its job like an fn error:
// wrapped with its job index, and fn never sees the failed run.
func TestRunsEachPropagatesRunError(t *testing.T) {
	cfgs := smallSweep(2)
	cfgs[1].NumRobots = 0
	err := RunsEach(context.Background(), Options{}, cfgs,
		func(i int, _ *cocoa.Result) error {
			if i == 1 {
				t.Error("fn called for the failed run")
			}
			return nil
		})
	if !errors.Is(err, cocoa.ErrInvalidConfig) || !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("err = %v, want job 1's invalid-config error", err)
	}
}
