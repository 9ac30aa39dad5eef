package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"cocoa/internal/cocoa"
)

func TestPoolRunsSubmittedJobs(t *testing.T) {
	p := NewPool[int](2, 4)
	defer p.Close()
	handles := make([]*Handle[int], 8)
	for i := range handles {
		i := i
		var err error
		// The queue bound (workers 2 + depth 4) is smaller than 8 jobs, so
		// submit with retry: rejected submissions re-offer after a yield.
		for {
			handles[i], err = p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
				return i * i, nil
			})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, h := range handles {
		v, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		if v != i*i {
			t.Errorf("job %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool[int](1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker...
	running, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		close(started)
		<-block
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...fill the single queue slot...
	queued, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...and the next submission must shed.
	if _, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		return 3, nil
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	st := p.Stats()
	if st.Queued != 1 || st.InFlight != 1 || st.Workers != 1 || st.Capacity != 1 {
		t.Errorf("Stats = %+v, want 1 queued / 1 inflight / 1 worker / cap 1", st)
	}
	close(block)
	if v, err := running.Result(); err != nil || v != 1 {
		t.Fatalf("running job = %d, %v", v, err)
	}
	if v, err := queued.Result(); err != nil || v != 2 {
		t.Fatalf("queued job = %d, %v", v, err)
	}
}

func TestPoolCancelWhileQueued(t *testing.T) {
	p := NewPool[int](1, 2)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		close(started)
		<-block
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	h, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		t.Error("canceled queued job still ran")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	close(block)
	if _, err := h.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPoolCloseDrainsAcceptedJobs(t *testing.T) {
	p := NewPool[int](1, 4)
	handles := make([]*Handle[int], 3)
	for i := range handles {
		i := i
		var err error
		handles[i], err = p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Close() // blocks until all three settle
	for i, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("job %d not settled after Close", i)
		}
		if v, err := h.Result(); err != nil || v != i {
			t.Errorf("job %d = %d, %v", i, v, err)
		}
	}
	if _, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		return 0, nil
	}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-Close submit err = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolClampsDegenerateSizes(t *testing.T) {
	p := NewPool[int](0, -1)
	defer p.Close()
	st := p.Stats()
	if st.Workers != 1 || st.Capacity != 0 {
		t.Fatalf("Stats = %+v, want 1 worker / cap 0", st)
	}
	// With capacity 0 a submission only succeeds via worker handoff... which
	// an unbuffered channel's non-blocking send cannot do reliably, so a
	// zero-capacity pool may reject everything; just assert it never panics.
	if h, err := p.TrySubmit(context.Background(), func(ctx context.Context) (int, error) {
		return 7, nil
	}); err == nil {
		if v, jerr := h.Result(); jerr != nil || v != 7 {
			t.Fatalf("job = %d, %v", v, jerr)
		}
	} else if !errors.Is(err, ErrQueueFull) {
		t.Fatal(err)
	}
}

// Pool-run simulations must be byte-identical to direct runs: the pool adds
// scheduling, never semantics.
func TestPoolRunsDeterministicSimulations(t *testing.T) {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 8
	cfg.NumEquipped = 4
	cfg.DurationS = 60
	cfg.Calibration.Samples = 40000
	cfg.GridCellM = 8
	direct, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool[*cocoa.Result](2, 4)
	defer p.Close()
	h, err := p.TrySubmit(context.Background(), func(ctx context.Context) (*cocoa.Result, error) {
		return cocoa.RunContext(ctx, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled.AvgError) != len(direct.AvgError) {
		t.Fatalf("sample count %d != %d", len(pooled.AvgError), len(direct.AvgError))
	}
	for i := range pooled.AvgError {
		if pooled.AvgError[i] != direct.AvgError[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, pooled.AvgError[i], direct.AvgError[i])
		}
	}
	if pooled.TotalEnergyJ != direct.TotalEnergyJ || pooled.Fixes != direct.Fixes {
		t.Error("pooled run diverged from direct run on energy/fix counters")
	}
}
