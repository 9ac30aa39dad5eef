// Package runner is a generic execution engine with no knowledge of what
// it runs. Map fans n independent jobs (an experiment's simulation runs,
// one per sweep point) across a fixed set of workers while preserving the
// exact semantics of a serial loop; Pool is the long-lived, bounded
// counterpart a service submits jobs to one at a time; StartProfiles wraps
// a process in CPU, heap and execution-trace profiles.
//
// Map guarantees:
//
//   - deterministic result ordering: results land at their job index, never
//     in completion order, so a parallel sweep returns byte-identical output
//     to a serial one when every job is a pure function of its index;
//   - first-error propagation: the first failing job (lowest index among
//     observed failures) cancels all outstanding work and its error is
//     returned, mirroring a serial loop's early return;
//   - cooperative cancellation: a context cancels between jobs, and the
//     per-job context lets long jobs observe cancellation themselves;
//   - monotone progress: the completed-run count published through
//     Options.Gauge never decreases and ends at (n, n) on a fully
//     successful fan-out.
//
// Parallelism <= 1 runs one worker, which takes the jobs in index order
// exactly as a serial loop would.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cocoa/internal/obs"
	"cocoa/internal/telemetry"
)

// Telemetry instruments: how long each job ran (wall clock; the span's
// count is the number of jobs run), how long it sat queued before a worker
// picked it up, how many jobs are in flight right now and how many failed.
// Recording never influences scheduling, so parallel fan-outs stay
// byte-identical with telemetry on or off.
var (
	telJobErrors = telemetry.Default.Counter("runner.job_errors")
	telJobWall   = telemetry.Default.Span("runner.job_wall")
	telQueueWait = telemetry.Default.Span("runner.queue_wait")
	telInflight  = telemetry.Default.Gauge("runner.inflight")
)

// runJob wraps one job execution with the fan-out's telemetry spans.
// submitted is when the fan-out started — queue wait is the time a job
// spent waiting for an execution slot.
func runJob[T any](ctx context.Context, submitted time.Time, i int, fn func(ctx context.Context, i int) (T, error)) (T, error) {
	telQueueWait.Observe(time.Since(submitted))
	telInflight.Add(1)
	tm := telJobWall.Start()
	v, err := fn(ctx, i)
	tm.End()
	telInflight.Add(-1)
	if err != nil {
		telJobErrors.Inc()
	}
	return v, err
}

// Options configures one fan-out.
type Options struct {
	// Parallelism is the maximum number of concurrently executing jobs.
	// Values <= 1 run the jobs one at a time in index order; Map never
	// starts more workers than there are jobs. Use MaxParallelism for "as
	// many as the hardware allows".
	Parallelism int
	// Gauge, when non-nil, receives the fan-out's live position: SetRun
	// (0, n) at the start and (done, n) after each completed job, with
	// done strictly increasing. Jobs may publish their own position into
	// the same gauge (a simulation run sets its ticks through cocoa's
	// Config.Progress); concurrent jobs share it, so the tick readout
	// tracks whichever job published last, which is the intended "what is
	// the pool doing right now" signal. Publication is write-only and
	// lock-free, so it cannot perturb results or scheduling.
	Gauge *obs.Progress
}

// MaxParallelism returns the worker count that saturates the hardware,
// GOMAXPROCS at the time of the call.
func MaxParallelism() int { return runtime.GOMAXPROCS(0) }

// Map executes fn(ctx, i) for every i in [0, n) on min(max(Parallelism,
// 1), n) workers and returns the results in index order. The first error
// cancels outstanding work and is returned wrapped with its job index
// (among concurrently observed failures, the lowest index wins, matching
// the job a serial loop would have failed on). A nil ctx means
// context.Background().
func Map[T any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	submitted := time.Now()
	opts.Gauge.SetRun(0, n)
	workers := min(max(opts.Parallelism, 1), n)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		done     int
		firstErr error
		errIdx   = -1
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				v, err := runJob(cctx, submitted, i, fn)
				mu.Lock()
				if err != nil {
					if errIdx == -1 || i < errIdx {
						firstErr = fmt.Errorf("runner: job %d: %w", i, err)
						errIdx = i
					}
					mu.Unlock()
					cancel()
					continue
				}
				out[i] = v
				done++
				opts.Gauge.SetRun(done, n)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
