package runner

// The bounded pool: the long-lived counterpart to Map's one-shot fan-out.
// Map serves batch sweeps ("run these n jobs, give me the slice"); the Pool
// serves services — callers submit jobs one at a time over the process
// lifetime, and admission is bounded so overload turns into backpressure
// instead of unbounded queue growth. A job is a plain func(): it carries
// its own context, outcome and settlement, so the pool only schedules.

import (
	"errors"
	"sync"
	"time"
)

// Pool admission errors.
var (
	// ErrQueueFull reports that the pool's waiting queue is at capacity;
	// the caller should shed load (an HTTP service maps it to 429).
	ErrQueueFull = errors.New("runner: job queue full")
	// ErrPoolClosed reports a submission after Close began draining.
	ErrPoolClosed = errors.New("runner: pool closed")
)

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

// poolTask is one accepted job and when it was accepted.
type poolTask struct {
	fn       func()
	enqueued time.Time
}

// Pool is a fixed set of workers pulling from a bounded queue. Every
// accepted job runs; Close stops intake and drains.
type Pool struct {
	tasks chan poolTask
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	queued   int
	inflight int
	workers  int
}

// NewPool starts workers goroutines serving a queue of at most queueDepth
// waiting jobs. workers and queueDepth are clamped to at least 1 and 0.
func NewPool(workers, queueDepth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &Pool{
		tasks:   make(chan poolTask, queueDepth),
		workers: workers,
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for task := range p.tasks {
		p.mu.Lock()
		p.queued--
		p.inflight++
		p.mu.Unlock()
		telQueueWait.Observe(time.Since(task.enqueued))
		task.fn()
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
	}
}

// TrySubmit offers fn to the pool without blocking. It returns ErrQueueFull
// when every queue slot is taken (shed load and retry later) and
// ErrPoolClosed after Close. An accepted fn always runs exactly once, on a
// pool worker; a job that must be skippable (canceled or past its deadline
// while queued) checks for that itself when it starts.
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	// Admission counts queue slots, not channel occupancy: a task handed to
	// an idle worker never sits in the channel, but it still transited the
	// queue accounting (the worker decrements immediately).
	select {
	case p.tasks <- poolTask{fn: fn, enqueued: time.Now()}:
		p.queued++
		return nil
	default:
		return ErrQueueFull
	}
}

// Stats returns the pool's current occupancy.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Queued:   p.queued,
		InFlight: p.inflight,
		Workers:  p.workers,
		Capacity: cap(p.tasks),
	}
}

// Close stops intake and blocks until every accepted job has run — the
// drain step of a graceful shutdown. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
