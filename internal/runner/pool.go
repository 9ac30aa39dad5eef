package runner

// Job handles and the bounded pool: the long-lived counterpart to Map's
// one-shot fan-out. Map serves batch sweeps ("run these n jobs, give me the
// slice"); the Pool serves services — callers submit jobs one at a time
// over the process lifetime, admission is bounded so overload turns into
// backpressure instead of unbounded queue growth, and every job returns a
// Handle the caller can wait on or cancel independently.

import (
	"context"
	"errors"
	"sync"
	"time"

	"cocoa/internal/telemetry"
)

// Pool admission errors.
var (
	// ErrQueueFull reports that the pool's waiting queue is at capacity;
	// the caller should shed load (an HTTP service maps it to 429).
	ErrQueueFull = errors.New("runner: job queue full")
	// ErrPoolClosed reports a submission after Close began draining.
	ErrPoolClosed = errors.New("runner: pool closed")
)

// Telemetry for the pool path (the one-shot Map path has its own
// instruments above). Recording never steers scheduling.
var (
	telPoolSubmitted = telemetry.Default.Counter("runner.pool_submitted")
	telPoolRejected  = telemetry.Default.Counter("runner.pool_rejected")
	telPoolQueued    = telemetry.Default.Gauge("runner.pool_queued")
	telPoolInflight  = telemetry.Default.Gauge("runner.pool_inflight")
)

// Handle is one asynchronously executing job: a future for its result plus
// a cancellation lever. The zero value is invalid; handles come from
// Pool.TrySubmit.
type Handle[T any] struct {
	cancel context.CancelFunc
	done   chan struct{}

	val T
	err error
}

// Done returns a channel closed when the job has finished (successfully,
// with an error, or canceled before it started).
func (h *Handle[T]) Done() <-chan struct{} { return h.done }

// Result blocks until the job finishes and returns its outcome. A job
// canceled before starting returns its context's error.
func (h *Handle[T]) Result() (T, error) {
	<-h.done
	return h.val, h.err
}

// Cancel asks the job to stop: a queued job is abandoned before it runs, a
// running job observes cancellation through its context. Cancel never
// blocks; wait on Done for the job to actually settle.
func (h *Handle[T]) Cancel() { h.cancel() }

// complete settles the handle exactly once.
func (h *Handle[T]) complete(v T, err error) {
	h.val, h.err = v, err
	close(h.done)
}

// PoolStats is a point-in-time view of a pool's occupancy.
type PoolStats struct {
	// Queued is how many accepted jobs are waiting for a worker.
	Queued int
	// InFlight is how many jobs are executing right now.
	InFlight int
	// Workers is the pool's fixed worker count.
	Workers int
	// Capacity is the waiting-queue bound; Queued never exceeds it.
	Capacity int
}

// poolTask pairs a job function with its handle.
type poolTask[T any] struct {
	ctx      context.Context
	fn       func(ctx context.Context) (T, error)
	h        *Handle[T]
	enqueued time.Time
}

// Pool is a fixed set of workers pulling from a bounded queue. Accepted
// jobs always run to completion (or until their context cancels them);
// Close stops intake and drains.
type Pool[T any] struct {
	tasks chan *poolTask[T]
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	queued   int
	inflight int
	workers  int
}

// NewPool starts workers goroutines serving a queue of at most queueDepth
// waiting jobs. workers and queueDepth are clamped to at least 1 and 0.
func NewPool[T any](workers, queueDepth int) *Pool[T] {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &Pool[T]{
		tasks:   make(chan *poolTask[T], queueDepth),
		workers: workers,
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool[T]) worker() {
	defer p.wg.Done()
	for task := range p.tasks {
		p.mu.Lock()
		p.queued--
		telPoolQueued.Add(-1)
		p.mu.Unlock()
		// A job canceled (or deadline-expired) while waiting never runs;
		// its handle settles with the context's error.
		if err := task.ctx.Err(); err != nil {
			var zero T
			task.h.complete(zero, err)
			continue
		}
		p.mu.Lock()
		p.inflight++
		telPoolInflight.Add(1)
		p.mu.Unlock()
		telQueueWait.Observe(time.Since(task.enqueued))
		v, err := task.fn(task.ctx)
		task.h.complete(v, err)
		p.mu.Lock()
		p.inflight--
		telPoolInflight.Add(-1)
		p.mu.Unlock()
	}
}

// TrySubmit offers fn to the pool without blocking. It returns ErrQueueFull
// when every queue slot is taken (shed load and retry later) and
// ErrPoolClosed after Close. The job runs under a context derived from ctx;
// Handle.Cancel or ctx's own cancellation stop it. A nil ctx means
// context.Background().
func (p *Pool[T]) TrySubmit(ctx context.Context, fn func(ctx context.Context) (T, error)) (*Handle[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	h := &Handle[T]{cancel: cancel, done: make(chan struct{})}
	task := &poolTask[T]{ctx: jctx, fn: fn, h: h, enqueued: time.Now()}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		cancel()
		telPoolRejected.Inc()
		return nil, ErrPoolClosed
	}
	// Admission counts queue slots, not channel occupancy: a task handed to
	// an idle worker never sits in the channel, but it still transited the
	// queue accounting (the worker decrements immediately).
	select {
	case p.tasks <- task:
		p.queued++
		telPoolQueued.Add(1)
		telPoolSubmitted.Inc()
		return h, nil
	default:
		cancel()
		telPoolRejected.Inc()
		return nil, ErrQueueFull
	}
}

// Stats returns the pool's current occupancy.
func (p *Pool[T]) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Queued:   p.queued,
		InFlight: p.inflight,
		Workers:  p.workers,
		Capacity: cap(p.tasks),
	}
}

// Close stops intake and blocks until every accepted job has settled — the
// drain step of a graceful shutdown. Close is idempotent.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
