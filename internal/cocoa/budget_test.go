package cocoa

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cocoa/internal/bayes"
	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// The CPU budget is a slotPool's count of CPUs in use: one per running team
// and one per helper its beacon flushes claim. These tests run teams on
// private pools, so they neither read nor move the process-wide count and
// stay safe under -shuffle and t.Parallel.

// budgetSpy wraps a robot's localizer and records, at every beacon a flush
// applies, the highest CPU count its pool has reached.
type budgetSpy struct {
	Localizer
	pool *slotPool
	peak *atomic.Int64
}

func (s budgetSpy) ApplyBeacon(pos geom.Vec2, pdf bayes.DistanceDensity) {
	n := s.pool.cpus.Load()
	for old := s.peak.Load(); n > old && !s.peak.CompareAndSwap(old, n); old = s.peak.Load() {
	}
	s.Localizer.ApplyBeacon(pos, pdf)
}

// spyTeam builds cfg on p with every localizer wrapped in a budgetSpy that
// records into peak. maxBusy, when non-nil, receives the most robots with
// queued beacons at any window's flush.
func spyTeam(t *testing.T, p *slotPool, cfg Config, peak *atomic.Int64, maxBusy *int) *Team {
	t.Helper()
	var team *Team
	observer := cfg.Observer
	cfg.Observer = func(e Event) {
		// EventWindowEnd is emitted just before the window's flush, on the
		// run's own goroutine.
		if e.Kind == EventWindowEnd && maxBusy != nil {
			busy := 0
			for _, r := range team.robots {
				if len(r.pending) > 0 {
					busy++
				}
			}
			*maxBusy = max(*maxBusy, busy)
		}
		if observer != nil {
			observer(e)
		}
	}
	team, err := p.team(cfg, reference{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range team.robots {
		if r.loc != nil {
			r.loc = budgetSpy{Localizer: r.loc, pool: p, peak: peak}
		}
	}
	return team
}

// budgetConfig is testConfig with more robots to localize, so a flush has
// work for several CPUs.
func budgetConfig() Config {
	cfg := testConfig()
	cfg.NumRobots = 24
	cfg.NumEquipped = 8
	cfg.DurationS = 200
	return cfg
}

// A lone run fans each flush out onto every other CPU, as far as the flush
// has robots to spread, and hands them back.
func TestBudgetLoneRunClaimsSpareCPUs(t *testing.T) {
	t.Parallel()
	var p slotPool
	var peak atomic.Int64
	maxBusy := 0
	if _, err := spyTeam(t, &p, budgetConfig(), &peak, &maxBusy).run(context.Background(), &p); err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	// The run holds one CPU and claims min(busy-1, GOMAXPROCS-1) helpers.
	if want := int64(min(maxBusy, procs)); maxBusy < 2 || peak.Load() != want {
		t.Errorf("peak CPUs in use %d with at most %d busy robots, want %d (GOMAXPROCS %d)",
			peak.Load(), maxBusy, want, procs)
	}
	if n := p.cpus.Load(); n != 0 {
		t.Errorf("%d CPUs still counted after the run", n)
	}
}

// With every CPU already held, a flush claims no helper: it applies on the
// run's own goroutine.
func TestBudgetFullClaimsNone(t *testing.T) {
	t.Parallel()
	var p slotPool
	procs := int64(runtime.GOMAXPROCS(0))
	p.cpus.Add(procs - 1) // every CPU but the run's own is held elsewhere
	var peak atomic.Int64
	if _, err := spyTeam(t, &p, budgetConfig(), &peak, nil).run(context.Background(), &p); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != procs {
		t.Errorf("peak CPUs in use %d, want GOMAXPROCS %d: a flush claimed a CPU none had", peak.Load(), procs)
	}
	if n := p.cpus.Load(); n != procs-1 {
		t.Errorf("%d CPUs counted after the run, want the %d held before it", n, procs-1)
	}
}

// GOMAXPROCS runs at once hold every CPU until the first ends; then the
// others' flushes claim what it freed. No flush ever takes the count past
// GOMAXPROCS. The runs wait for each other at their first window, before
// any flush, so all of them are counted by then.
func TestBudgetConcurrentRunsNeverOversubscribe(t *testing.T) {
	t.Parallel()
	var p slotPool
	procs := runtime.GOMAXPROCS(0)
	var peak atomic.Int64
	var started sync.WaitGroup
	started.Add(procs)
	teams := make([]*Team, procs)
	for i := range teams {
		cfg := budgetConfig()
		cfg.Seed = int64(i + 1)
		cfg.DurationS = cfg.BeaconPeriodS * sim.Time(2+i) // runs end one after another
		var once sync.Once
		cfg.Observer = func(e Event) {
			if e.Kind == EventWindowStart {
				once.Do(func() {
					started.Done()
					started.Wait()
				})
			}
		}
		teams[i] = spyTeam(t, &p, cfg, &peak, nil)
	}
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i, team := range teams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = team.run(context.Background(), &p)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if peak.Load() > int64(procs) {
		t.Errorf("peak CPUs in use %d exceeds GOMAXPROCS %d", peak.Load(), procs)
	}
	if n := p.cpus.Load(); n != 0 {
		t.Errorf("%d CPUs still counted after the runs", n)
	}
}

// A run hands its CPU back on every exit: canceled mid-run, canceled before
// it starts, and stopped by a panic (the tests above cover finished runs).
func TestBudgetReleasedOnEveryExit(t *testing.T) {
	t.Parallel()
	check := func(t *testing.T, p *slotPool) {
		t.Helper()
		if n := p.cpus.Load(); n != 0 {
			t.Errorf("%d CPUs still counted after the run", n)
		}
	}
	t.Run("canceled", func(t *testing.T) {
		t.Parallel()
		var p slotPool
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := budgetConfig()
		cfg.Observer = func(e Event) {
			if e.Kind == EventFix {
				cancel()
			}
		}
		if _, err := p.run(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		check(t, &p)
	})
	t.Run("canceled-before-start", func(t *testing.T) {
		t.Parallel()
		var p slotPool
		team, err := p.team(budgetConfig(), reference{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := team.run(ctx, &p); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		check(t, &p)
	})
	t.Run("panicked", func(t *testing.T) {
		t.Parallel()
		var p slotPool
		cfg := budgetConfig()
		cfg.Observer = func(e Event) {
			if e.Kind == EventFix {
				panic("observer failed")
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the observer's panic did not reach the caller")
				}
			}()
			_, _ = p.run(context.Background(), cfg)
		}()
		check(t, &p)
	})
}
