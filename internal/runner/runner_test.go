package runner

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cocoa/internal/cocoa"
	"cocoa/internal/faults"
	"cocoa/internal/obs"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, par := range []int{0, 1, 4, 16} {
		got, err := Map(context.Background(), Options{Parallelism: par}, 50,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// A nil context means context.Background(), and MaxParallelism is the
// scheduler's CPU count.
func TestMapNilContextAndMaxParallelism(t *testing.T) {
	if got, want := MaxParallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("MaxParallelism = %d, want GOMAXPROCS %d", got, want)
	}
	got, err := Map(nil, Options{Parallelism: MaxParallelism()}, 3,
		func(ctx context.Context, i int) (int, error) { return i, ctx.Err() })
	if err != nil || len(got) != 3 || got[2] != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), Options{Parallelism: 4}, 0,
		func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapFirstErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		_, err := Map(context.Background(), Options{Parallelism: par}, 20,
			func(_ context.Context, i int) (int, error) {
				if i == 3 {
					return 0, boom
				}
				return i, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want wrapped boom", par, err)
		}
		if par == 1 && !strings.Contains(err.Error(), "job 3") {
			t.Fatalf("error lost job index: %v", err)
		}
	}
}

func TestMapSerialErrorStopsEarly(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Map(context.Background(), Options{}, 10,
		func(_ context.Context, i int) (int, error) {
			calls++
			if i == 2 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("calls = %d, err = %v; want 3 calls and boom", calls, err)
	}
}

func TestMapParallelErrorCancelsOutstanding(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{}, 64)
	_, err := Map(context.Background(), Options{Parallelism: 2}, 64,
		func(ctx context.Context, i int) (int, error) {
			started <- struct{}{}
			return 0, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Cancellation keeps the pool from visiting all 64 jobs: at most the
	// two in-flight jobs plus the two picked before observing the cancel.
	if n := len(started); n > 8 {
		t.Errorf("%d jobs started after first error; cancellation ineffective", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		_, err := Map(ctx, Options{Parallelism: par}, 10,
			func(_ context.Context, i int) (int, error) { return i, nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
}

// The gauge is the fan-out's one progress channel: a reader polling it
// concurrently (under -race) never sees the completed-run count go back,
// and a successful fan-out leaves it at (n, n).
func TestMapProgressSerializedAndComplete(t *testing.T) {
	for _, par := range []int{1, 4} {
		g := &obs.Progress{}
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			last := 0
			for {
				done, total := g.Run()
				if done < last || done > total || (total != 0 && total != 30) {
					t.Errorf("parallelism %d: gauge read (%d, %d) after done %d", par, done, total, last)
					return
				}
				last = done
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		_, err := Map(context.Background(), Options{Parallelism: par, Gauge: g}, 30,
			func(_ context.Context, i int) (int, error) {
				time.Sleep(100 * time.Microsecond)
				return i, nil
			})
		close(stop)
		<-stopped
		if err != nil {
			t.Fatal(err)
		}
		if done, total := g.Run(); done != 30 || total != 30 {
			t.Fatalf("parallelism %d: final gauge (%d, %d), want (30, 30)", par, done, total)
		}
	}
}

// faultHeavyConfig is a small but hostile workload: bursty loss, crashed
// robots, and RSSI outliers all active, so cancellation interrupts the
// engine while the fault machinery is mid-flight.
func faultHeavyConfig(seed int64) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 4
	cfg.DurationS = 60
	cfg.BeaconPeriodS = 20
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 20000
	cfg.Seed = seed
	cfg.Faults.GE = faults.Bursty(0.5, faults.DefaultBurstFrames)
	cfg.Faults.CrashFraction = 0.25
	cfg.Faults.CrashMeanDownS = 30
	cfg.Faults.OutlierProb = 0.05
	return cfg
}

// waitForGoroutines polls until the goroutine count drops back to the
// bound or the deadline passes, returning the last observed count.
func waitForGoroutines(bound int, deadline time.Duration) int {
	start := time.Now()
	for {
		n := runtime.NumGoroutine()
		if n <= bound || time.Since(start) > deadline {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancellationMidSweepUnderFaultLoad cancels a parallel fault-heavy
// sweep partway through and checks the three things a caller relies on:
// the engine reports context.Canceled, every worker goroutine exits, and
// whatever jobs DID complete computed the result for their own index —
// cancellation must not scramble the index->config mapping.
func TestCancellationMidSweepUnderFaultLoad(t *testing.T) {
	const n = 24
	cfgs := make([]cocoa.Config, n)
	for i := range cfgs {
		cfgs[i] = faultHeavyConfig(int64(i + 1))
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		mu        sync.Mutex
		partial   = make(map[int]*cocoa.Result)
		completed atomic.Int64
	)
	_, err := Map(ctx, Options{Parallelism: 4}, n,
		func(ctx context.Context, i int) (*cocoa.Result, error) {
			res, rerr := cocoa.Run(cfgs[i])
			if rerr != nil {
				return nil, rerr
			}
			mu.Lock()
			partial[i] = res
			mu.Unlock()
			if completed.Add(1) == 3 {
				cancel() // mid-sweep: several jobs done, many outstanding
			}
			return res, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	mu.Lock()
	got := len(partial)
	mu.Unlock()
	if got < 3 {
		t.Fatalf("only %d jobs completed before cancel; gate never fired", got)
	}
	if got == n {
		t.Fatalf("all %d jobs completed; cancellation did not interrupt the sweep", n)
	}

	// No goroutine leaks: the pool must wind down to the pre-sweep count
	// (plus slack for runtime background goroutines).
	if leaked := waitForGoroutines(baseline+2, 2*time.Second); leaked > baseline+2 {
		t.Errorf("goroutines = %d after cancelled sweep, baseline %d", leaked, baseline)
	}

	// Index consistency: each surviving partial result must be byte-for-byte
	// what a fresh serial run of that index's config produces.
	checked := 0
	for i, res := range partial {
		if checked == 3 {
			break
		}
		checked++
		want, rerr := cocoa.Run(cfgs[i])
		if rerr != nil {
			t.Fatalf("re-run of cfg %d: %v", i, rerr)
		}
		if res.MeanError() != want.MeanError() || res.Fixes != want.Fixes ||
			res.Crashes != want.Crashes || res.FaultDrops != want.FaultDrops {
			t.Errorf("partial result %d inconsistent with its config: got (err=%v fixes=%d crashes=%d drops=%d), want (err=%v fixes=%d crashes=%d drops=%d)",
				i, res.MeanError(), res.Fixes, res.Crashes, res.FaultDrops,
				want.MeanError(), want.Fixes, want.Crashes, want.FaultDrops)
		}
	}
}

// TestMapNoGoroutineLeakAfterError is the error-path twin: a failing job
// cancels the sweep, and the pool must still wind down completely.
func TestMapNoGoroutineLeakAfterError(t *testing.T) {
	boom := errors.New("boom")
	baseline := runtime.NumGoroutine()
	_, err := Map(context.Background(), Options{Parallelism: 8}, 64,
		func(_ context.Context, i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if leaked := waitForGoroutines(baseline+2, 2*time.Second); leaked > baseline+2 {
		t.Errorf("goroutines = %d after failed sweep, baseline %d", leaked, baseline)
	}
}
