// Package serve implements the cocoad batch simulation service: a bounded
// job queue over the experiment engine, exposed as an HTTP/JSON API.
//
// Callers submit either a raw cocoa.Config or a named registry experiment
// and get back a job ID; jobs execute on a fixed worker pool with a
// bounded waiting queue, so overload turns into explicit backpressure
// (HTTP 429 + Retry-After) instead of unbounded memory growth. Each job
// runs under its own context with an optional deadline; cancellation is
// cooperative all the way down to the simulation's sampling tick.
//
// Determinism is preserved end to end: a result served over HTTP is the
// JSON encoding of exactly what the equivalent direct cocoa.Run call
// returns, at any worker count and queue occupancy — the service adds
// scheduling, never semantics.
//
// Shutdown is a drain, not a kill: Shutdown stops intake (submissions get
// HTTP 503), lets every accepted job finish, then returns. A deadline on
// the drain context hard-cancels the remaining jobs cooperatively.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cocoa"
	"cocoa/internal/eventlog"
	"cocoa/internal/obs"
	"cocoa/internal/runner"
	"cocoa/internal/telemetry"
)

// Service admission errors beyond the pool's own.
var (
	// ErrDraining reports a submission after Shutdown began; an HTTP
	// frontend maps it to 503.
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrBadRequest wraps malformed submissions that are not config
	// validation failures (no payload, unknown experiment, both kinds set).
	ErrBadRequest = errors.New("serve: bad request")
)

// Telemetry instruments for the service layer. Pool occupancy is not an
// instrument: /metrics samples it from Pool.Stats per scrape
// (cocoad_pool_queued, cocoad_pool_inflight).
var (
	telAccepted         = telemetry.Default.Counter("serve.jobs_accepted")
	telRejectedFull     = telemetry.Default.Counter("serve.jobs_rejected_full")
	telRejectedDraining = telemetry.Default.Counter("serve.jobs_rejected_draining")
	telRejectedInvalid  = telemetry.Default.Counter("serve.jobs_rejected_invalid")
	telCompleted        = telemetry.Default.Counter("serve.jobs_completed")
	telFailed           = telemetry.Default.Counter("serve.jobs_failed")
	telCanceled         = telemetry.Default.Counter("serve.jobs_canceled")
)

// Config sizes the service.
type Config struct {
	// Workers is the number of jobs executing concurrently; <= 0 means 1.
	// Results are byte-identical at any value.
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// beyond it submissions are rejected with runner.ErrQueueFull. < 0
	// means 0 (admission only via an idle worker's queue slot).
	QueueDepth int
	// DefaultTimeout applies to jobs that request none; 0 means no limit.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested per-job timeout; 0 means no cap.
	MaxTimeout time.Duration
	// StateDir, when non-empty, makes jobs durable across process death:
	// every accepted job's request is persisted at submission as one file,
	// <StateDir>/<job ID>.json, and a restarted daemon re-enqueues the jobs
	// still there with RecoverJobs. A run is a pure function of its
	// request, so a recovered job simply runs again from the start and
	// serves the bytes an uninterrupted run would have. The record is
	// renamed into place without fsync, so the guarantee covers a killed
	// process, not a host crash. The directory is created by the first
	// submission that needs it. Empty keeps the service fully in-memory.
	StateDir string
	// Deprecated: CheckpointEveryTicks is ignored; the service takes no
	// snapshots. The field is kept only because the repository benchmark
	// (perfbench/service.go) still sets it.
	CheckpointEveryTicks int
	// Logger receives the service's structured log records (job lifecycle,
	// request access lines). nil discards them — the service never falls
	// back to the process-global logger.
	Logger *slog.Logger
}

// State is a job's lifecycle position. Transitions are strictly
// queued -> running -> {done, failed}, with canceled reachable from
// queued (never ran) or running (stopped cooperatively). A job recovered
// from a previous process enters resumed instead of running — the same
// position in the lifecycle, distinguished so clients can tell a
// continued job from a first execution.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateResumed  State = "resumed"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is one submission: exactly one of Config (a raw deployment,
// result is the full cocoa.Result) or Experiment (a registry name, result
// is that experiment's row type) must be set. Options scales an
// experiment job; its Gauge is never serialized, and the service wires the
// job's own.
type JobRequest struct {
	Config     *cocoa.Config            `json:"config,omitempty"`
	Experiment string                   `json:"experiment,omitempty"`
	Options    *cocoa.ExperimentOptions `json:"options,omitempty"`
	// TimeoutS bounds the job's total lifetime (queue wait included);
	// 0 uses the service default.
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// Trace records the run's span timeline for GET /v1/jobs/{id}/trace
	// (Chrome trace-event JSON). Raw-config jobs only — experiment sweeps
	// reject it. Tracing never changes result bytes (DESIGN.md §15).
	Trace bool `json:"trace,omitempty"`
}

// JobStatus is the wire representation of a job's current state.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "config" or the experiment name
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// RunsDone/RunsTotal track per-run progress inside the job's sweep
	// (the obs.Progress gauge's run pair); a raw-config job is a single
	// run.
	RunsDone  int `json:"runs_done"`
	RunsTotal int `json:"runs_total"`
	// Tick/TicksTotal expose the executing run's live position inside its
	// simulation loop (the obs.Progress gauge); zero until a run starts
	// publishing.
	Tick       int `json:"tick,omitempty"`
	TicksTotal int `json:"ticks_total,omitempty"`
	// EtaS projects the job's remaining wall-clock seconds from elapsed
	// time and published progress, rounded to whole seconds (so the events
	// stream is not churned by sub-second drift). Omitted until the job
	// has progress to extrapolate from.
	EtaS float64 `json:"eta_s,omitempty"`
	// Resumed marks a job recovered from a previous process's state
	// directory (its execution state is "resumed" while it reruns).
	Resumed bool `json:"resumed,omitempty"`
	// TraceAvailable reports that the job recorded a span trace, served at
	// GET /v1/jobs/{id}/trace once the job is done.
	TraceAvailable bool `json:"trace_available,omitempty"`
}

// Job is one tracked submission.
type Job struct {
	id   string
	kind string

	// resumed marks a job recovered by RecoverJobs; record is the path of
	// the job's durable record ("" for an in-memory job). Both are fixed
	// before the job is enqueued and never change.
	resumed bool
	record  string

	mu         sync.Mutex
	state      State
	errMsg     string
	result     []byte
	userCancel bool
	changed    chan struct{}
	traceJSON  []byte

	// progress is the job's live gauge and the only record of its run
	// count: the simulation loop (tick position) and the sweep engine
	// (completed runs) publish through it lock-free; Status reads it on
	// demand. trace marks JobRequest.Trace jobs, whose span trace is
	// rendered from the run's events into traceJSON on success. log
	// carries the job's ID and kind as pre-bound attrs; enqueue sets it
	// before the job can reach the pool.
	progress *obs.Progress
	trace    bool
	log      *slog.Logger

	// cancel ends the job's context (its deadline included); set before
	// the job reaches the pool and never changed.
	cancel context.CancelFunc
}

// newJob returns a queued job whose gauge reports a single pending run
// until an experiment sweep publishes its own total.
func newJob(resumed bool) *Job {
	j := &Job{kind: "config", state: StateQueued, resumed: resumed,
		changed: make(chan struct{}), progress: &obs.Progress{}}
	j.progress.SetRun(0, 1)
	return j
}

// ID returns the job's unique identifier.
func (j *Job) ID() string { return j.id }

// statusLocked assembles the wire snapshot; callers hold j.mu. The run
// count, live tick position and ETA come from the lock-free progress
// gauge — reading them takes atomic loads only, never blocks the
// simulation. The ETA is rounded to whole seconds so equal-looking
// statuses compare equal and the events stream is not churned by
// sub-second drift.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg,
		Resumed: j.resumed, TraceAvailable: j.traceJSON != nil,
	}
	st.RunsDone, st.RunsTotal = j.progress.Run()
	st.Tick, st.TicksTotal = j.progress.Ticks()
	if !j.state.Terminal() {
		if eta, ok := j.progress.ETA(time.Now()); ok {
			st.EtaS = math.Round(eta.Seconds())
		}
	}
	return st
}

// Status returns a point-in-time snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Watch returns the current snapshot plus a channel closed on the next
// state change — the poll-free primitive behind the events stream. Gauge
// progress (ticks and completed runs) does not fire the channel (that
// would wake watchers thousands of times per run); the events handler
// re-reads on a coarse ticker instead.
func (j *Job) Watch() (JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), j.changed
}

// Trace returns the job's recorded span trace (Chrome trace-event JSON)
// once the job is done; ok is false while the job is live or when the
// submission did not request tracing.
func (j *Job) Trace() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceJSON, j.traceJSON != nil
}

// setTrace stores the serialized trace; called by the execution closure
// just before the job settles.
func (j *Job) setTrace(b []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.traceJSON = b
}

// Cancel asks the job to stop; safe on terminal jobs. A user cancel also
// releases the job's persisted state — an explicitly abandoned job is not
// resumed after a restart.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.userCancel = true
	j.mu.Unlock()
	j.cancel()
}

// userCanceled reports whether Cancel was called on this job.
func (j *Job) userCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

// Result returns the stored result bytes once the job is done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// broadcast wakes watchers; callers hold j.mu.
func (j *Job) broadcast() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) setRunning() {
	j.progress.Start(time.Now())
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateRunning
		if j.resumed {
			j.state = StateResumed
		}
		j.broadcast()
		j.log.Info("job started", "state", string(j.state))
	}
}

// finalize records the outcome exactly once, classifying context errors:
// Canceled means the caller asked; DeadlineExceeded is a failure. A done
// job's gauge reports every run complete.
func (j *Job) finalize(b []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = b
		_, total := j.progress.Run()
		j.progress.SetRun(total, total)
		telCompleted.Inc()
		j.log.Info("job done", "runs", total, "result_bytes", len(b))
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
		telCanceled.Inc()
		j.log.Info("job canceled")
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		telFailed.Inc()
		j.log.Warn("job failed", "error", j.errMsg)
	}
	j.broadcast()
}

// Server is the job-queue service. Create with New; serve its HTTP API
// via Handler.
type Server struct {
	cfg  Config
	pool *runner.Pool

	// root is the parent of every job context; rootCancel is the
	// drain-deadline hard stop.
	root       context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	seq      int
	draining bool

	// runFn, when non-nil, replaces job execution — a test seam for
	// controllable blocking/failing jobs. Never set in production.
	runFn func(ctx context.Context, j *Job) ([]byte, error)

	// log is the service logger (Config.Logger or a no-op); reqSeq numbers
	// HTTP requests for the access-log middleware.
	log    *slog.Logger
	reqSeq atomic.Int64
}

// New starts a service with cfg's worker pool. Call Shutdown to drain.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	root, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		pool:       runner.NewPool(cfg.Workers, cfg.QueueDepth),
		root:       root,
		rootCancel: cancel,
		jobs:       make(map[string]*Job),
		log:        log,
	}
}

// findExperiment resolves a registry name.
func findExperiment(name string) (cocoa.ExperimentDescriptor, bool) {
	for _, d := range cocoa.Experiments() {
		if d.Name == name {
			return d, true
		}
	}
	return cocoa.ExperimentDescriptor{}, false
}

// timeout resolves a request's effective deadline under service policy.
func (s *Server) timeout(req JobRequest) time.Duration {
	d := time.Duration(req.TimeoutS * float64(time.Second))
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

// buildExec validates req and constructs the job's execution closure,
// setting j.kind. The closure may read j.id and j.record: both are fixed
// before the job reaches the pool.
func (s *Server) buildExec(req JobRequest, j *Job) (func(ctx context.Context) ([]byte, error), error) {
	switch {
	case s.runFn != nil:
		j.kind = req.Experiment
		if req.Config != nil {
			j.kind = "config"
		}
		return func(ctx context.Context) ([]byte, error) { return s.runFn(ctx, j) }, nil
	case req.Config != nil:
		cfg := *req.Config
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		j.trace = req.Trace
		return func(ctx context.Context) ([]byte, error) {
			return s.runConfig(ctx, cfg, j)
		}, nil
	default:
		if req.Trace {
			return nil, fmt.Errorf("%w: trace is only supported for raw-config jobs", ErrBadRequest)
		}
		d, ok := findExperiment(req.Experiment)
		if !ok {
			return nil, fmt.Errorf("%w: unknown experiment %q", ErrBadRequest, req.Experiment)
		}
		j.kind = d.Name
		var opts cocoa.ExperimentOptions
		if req.Options != nil {
			opts = *req.Options
		}
		opts.Gauge = j.progress
		return func(ctx context.Context) ([]byte, error) {
			v, err := d.Run(ctx, opts)
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		}, nil
	}
}

// Submit validates req and enqueues it. Error taxonomy: *cocoa.ConfigError
// (wrapping cocoa.ErrInvalidConfig) for bad configs, ErrBadRequest for
// malformed submissions, runner.ErrQueueFull under backpressure,
// ErrDraining during shutdown.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if (req.Config == nil) == (req.Experiment == "") {
		telRejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: exactly one of config or experiment must be set", ErrBadRequest)
	}
	j := newJob(false)
	exec, err := s.buildExec(req, j)
	if err != nil {
		telRejectedInvalid.Inc()
		return nil, err
	}
	return s.enqueue(req, j, exec, "")
}

// enqueue admits a prepared job under the service's backpressure and drain
// policy. fixedID is empty for fresh submissions (the job gets the next
// sequence ID and, with a StateDir, its request is persisted) and a
// recovered job's existing ID during RecoverJobs (its record is already on
// disk).
func (s *Server) enqueue(req JobRequest, j *Job, exec func(ctx context.Context) ([]byte, error), fixedID string) (*Job, error) {
	var jctx context.Context
	var cancel context.CancelFunc
	if d := s.timeout(req); d > 0 {
		jctx, cancel = context.WithTimeout(s.root, d)
	} else {
		jctx, cancel = context.WithCancel(s.root)
	}
	j.cancel = cancel

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		telRejectedDraining.Inc()
		return nil, ErrDraining
	}
	persisted := false
	if fixedID == "" {
		s.seq++
		j.id = fmt.Sprintf("job-%06d", s.seq)
		if s.cfg.StateDir != "" {
			j.record = recordPath(s.cfg.StateDir, j.id)
			if err := writeJobRecord(j.record, jobRecord{ID: j.id, Request: req}); err != nil {
				// A server-side fault, not bad input: the request was
				// valid, so no rejection counter moves.
				s.seq--
				s.mu.Unlock()
				cancel()
				s.log.Error("persist job failed", "job", j.id, "path", j.record, "error", err.Error())
				return nil, fmt.Errorf("serve: persist job: %w", err)
			}
			persisted = true
		}
	} else {
		j.id = fixedID
		j.record = recordPath(s.cfg.StateDir, j.id)
	}
	// Bind the job logger before the closure can run on a pool worker.
	j.log = s.log.With("job", j.id, "kind", j.kind)
	if err := s.pool.TrySubmit(func() { s.execute(jctx, j, exec) }); err != nil {
		if fixedID == "" {
			s.seq--
		}
		if persisted {
			// Best effort: a record left behind is only rerun at the next
			// recovery, never served.
			_ = os.Remove(j.record)
		}
		s.mu.Unlock()
		cancel()
		if errors.Is(err, runner.ErrPoolClosed) {
			telRejectedDraining.Inc()
			return nil, ErrDraining
		}
		telRejectedFull.Inc()
		return nil, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	telAccepted.Inc()
	j.log.Info("job accepted", "resumed", j.resumed, "trace", j.trace)
	return j, nil
}

// execute runs an accepted job on a pool worker and settles it there, so
// every accepted job is terminal once the pool has drained. A job canceled
// or past its deadline while it was queued never runs.
func (s *Server) execute(ctx context.Context, j *Job, exec func(ctx context.Context) ([]byte, error)) {
	defer j.cancel()
	var b []byte
	err := ctx.Err()
	if err == nil {
		j.setRunning()
		b, err = exec(ctx)
	}
	j.finalize(b, err)
	s.finishState(j, err)
}

// Job returns a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns snapshots of every tracked job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// metricSamples is the /metrics collector for service-level state the
// telemetry registry does not carry: per-state job gauges (every state
// always present, so dashboards see explicit zeros), pool occupancy, the
// drain flag, and per-live-job progress/ETA gauges. Invoked per scrape.
func (s *Server) metricSamples() []obs.Sample {
	states := []State{StateQueued, StateRunning, StateResumed, StateDone, StateFailed, StateCanceled}
	counts := make(map[State]int, len(states))
	var live []JobStatus
	s.mu.Lock()
	draining := s.draining
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		st := j.Status()
		counts[st.State]++
		if !st.State.Terminal() {
			live = append(live, st)
		}
	}

	samples := make([]obs.Sample, 0, len(states)+8+3*len(live))
	for _, st := range states {
		samples = append(samples, obs.Sample{
			Name: "cocoad_jobs", Type: "gauge",
			Help:   "Tracked jobs by lifecycle state.",
			Labels: []obs.Label{{Key: "state", Value: string(st)}},
			Value:  float64(counts[st]),
		})
	}
	ps := s.pool.Stats()
	samples = append(samples,
		obs.Sample{Name: "cocoad_pool_workers", Type: "gauge",
			Help: "Configured worker count.", Value: float64(ps.Workers)},
		obs.Sample{Name: "cocoad_pool_queue_capacity", Type: "gauge",
			Help: "Bounded queue capacity.", Value: float64(ps.Capacity)},
		obs.Sample{Name: "cocoad_pool_queued", Type: "gauge",
			Help: "Jobs waiting for a worker.", Value: float64(ps.Queued)},
		obs.Sample{Name: "cocoad_pool_inflight", Type: "gauge",
			Help: "Jobs executing right now.", Value: float64(ps.InFlight)},
		obs.Sample{Name: "cocoad_draining", Type: "gauge",
			Help: "1 while Shutdown drains the service.", Value: boolGauge(draining)},
	)
	now := time.Now()
	for _, st := range live {
		labels := []obs.Label{{Key: "job", Value: st.ID}}
		samples = append(samples, obs.Sample{
			Name: "cocoad_job_runs_done", Type: "gauge",
			Help: "Completed runs of a live job's sweep.", Labels: labels,
			Value: float64(st.RunsDone),
		}, obs.Sample{
			Name: "cocoad_job_tick", Type: "gauge",
			Help: "Current sampling tick of a live job's executing run.", Labels: labels,
			Value: float64(st.Tick),
		})
		if j, ok := s.Job(st.ID); ok {
			if eta, ok := j.progress.ETA(now); ok {
				samples = append(samples, obs.Sample{
					Name: "cocoad_job_eta_seconds", Type: "gauge",
					Help: "Projected remaining wall-clock seconds of a live job.", Labels: labels,
					Value: eta.Seconds(),
				})
			}
		}
	}
	return samples
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats exposes the pool occupancy for health endpoints.
func (s *Server) Stats() runner.PoolStats { return s.pool.Stats() }

// Shutdown drains the service: intake stops immediately (Submit returns
// ErrDraining), accepted jobs run to completion, then Shutdown returns.
// If ctx expires first, the remaining jobs are canceled cooperatively and
// Shutdown still waits for them to settle before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.pool.Close()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.rootCancel() // hard-cancel stragglers; they settle via their contexts
		<-drained
		return ctx.Err()
	}
}

// runConfig executes a raw-config job; a recovered job takes the same path
// as a fresh one.
func (s *Server) runConfig(ctx context.Context, cfg cocoa.Config, j *Job) ([]byte, error) {
	// Observability taps: the run publishes its tick position through the
	// job's gauge, and its events feed a span trace when the submission
	// asked for one. Both are write-only for the simulation — attaching
	// them never changes result bytes (DESIGN.md §15).
	cfg.Progress = j.progress
	var trace *eventlog.Trace
	if j.trace {
		trace = eventlog.NewTrace(cfg, j.id)
		cfg.Observer = trace.Observer()
	}
	res, err := cocoa.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// The Result's buffers are recycled once marshalled.
	defer cocoa.ReleaseResult(res)
	if trace != nil {
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, trace.Events()); err != nil {
			return nil, fmt.Errorf("serve: serialize trace: %w", err)
		}
		j.setTrace(buf.Bytes())
	}
	return json.Marshal(res)
}

// finishState applies the durable-state retention policy when a job
// settles. Jobs that ended on their own terms — done, failed (including a
// job past its own deadline), or canceled by the user — release their
// record. Only jobs the server itself stopped (drain hard-cancel) keep it,
// so a restarted daemon can pick them back up.
func (s *Server) finishState(j *Job, err error) {
	if j.record == "" {
		return
	}
	if !errors.Is(err, context.Canceled) || j.userCanceled() {
		// A record that outlives its job reruns it after a restart.
		if err := os.Remove(j.record); err != nil {
			j.log.Warn("release job record failed", "path", j.record, "error", err.Error())
		}
	}
}

// jobRecord is the durable form of an accepted job: enough to re-create
// the submission verbatim after a restart.
type jobRecord struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
}

// recordPath is where job id's record lives beneath stateDir.
func recordPath(stateDir, id string) string {
	return filepath.Join(stateDir, id+".json")
}

// writeJobRecord persists rec at path: it is written to a dot-prefixed
// temp name beside path and renamed into place, replacing whatever a
// previous process left under a recycled job ID. The state directory is
// created only when the write reports it missing, so in steady state a
// record costs one create-write-close and one rename.
func writeJobRecord(path string, rec jobRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	dir, name := filepath.Split(path)
	tmp := filepath.Join(dir, "."+name+".tmp")
	err = os.WriteFile(tmp, b, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(tmp, b, 0o644)
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: RecoverJobs removes a leftover temp
	}
	return err
}

// readJobRecord loads the record at path.
func readJobRecord(path string) (jobRecord, error) {
	var rec jobRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, err
	}
	return rec, nil
}

// jobNumber parses the sequence number of a job ID ("job-" and decimal
// digits).
func jobNumber(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// RecoverJobs re-enqueues the jobs a previous process left behind in
// StateDir, in job-number order, and returns the recovered IDs. Every job
// reruns from its persisted request.
//
// Older releases kept each record as <ID>/job.json, a directory that
// existed to hold a snapshot beside the record; snapshots are gone, and so
// is the directory. Such a record is moved to <ID>.json with one rename and
// its directory (any snapshot included) removed before the job is
// enqueued; where both forms exist (a crash mid-migration) the file wins.
// A leftover temp record (a process killed between write and rename, so
// the submission was never acknowledged) is removed.
//
// The sequence counter is restored above the highest job number seen in
// any of these forms, so new submissions never collide with recovered
// records. Unrecoverable records (unreadable or naming another job, an
// invalid request, a failed enqueue) are deleted, each with a Warn record
// naming the job and the reason. If the queue fills mid-recovery, recovery
// stops and the remaining records stay on disk for the next restart.
// Entries whose names are not job IDs are left alone.
func (s *Server) RecoverJobs() ([]string, error) {
	if s.cfg.StateDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type stored struct {
		id string
		n  int
	}
	var jobs, legacy []stored
	maxSeq := 0
	for _, e := range entries {
		name := e.Name()
		var id string
		var list *[]stored
		switch {
		case e.IsDir():
			id, list = name, &legacy
		case strings.HasPrefix(name, ".") && strings.HasSuffix(name, ".json.tmp"):
			id = strings.TrimSuffix(name[1:], ".json.tmp")
		case strings.HasSuffix(name, ".json"):
			id, list = strings.TrimSuffix(name, ".json"), &jobs
		}
		n, ok := jobNumber(id)
		if !ok {
			continue
		}
		maxSeq = max(maxSeq, n)
		if list == nil { // a temp record; a failed removal is retried next boot
			_ = os.Remove(filepath.Join(s.cfg.StateDir, name))
			continue
		}
		*list = append(*list, stored{id, n})
	}
	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	s.mu.Unlock()

	// discard deletes what is left of a job that cannot be recovered,
	// leaving a Warn record of which job was lost and why.
	discard := func(id, path, reason string) {
		s.log.Warn("discarding unrecoverable job", "job", id, "reason", reason)
		os.RemoveAll(path)
	}
	flat := make(map[string]bool, len(jobs))
	for _, st := range jobs {
		flat[st.id] = true
	}
	for _, l := range legacy {
		dir := filepath.Join(s.cfg.StateDir, l.id)
		if !flat[l.id] {
			if err := os.Rename(filepath.Join(dir, "job.json"), recordPath(s.cfg.StateDir, l.id)); err != nil {
				discard(l.id, dir, "unreadable job record: "+err.Error())
				continue
			}
			jobs = append(jobs, l)
		}
		// A directory that survives is removed at the next boot, where the
		// record file wins.
		_ = os.RemoveAll(dir)
	}
	// Order by number, not name: job-1000000 follows job-999999.
	slices.SortFunc(jobs, func(a, b stored) int {
		return cmp.Or(cmp.Compare(a.n, b.n), strings.Compare(a.id, b.id))
	})

	var recovered []string
	for _, st := range jobs {
		id, path := st.id, recordPath(s.cfg.StateDir, st.id)
		rec, err := readJobRecord(path)
		if err != nil {
			discard(id, path, "unreadable job record: "+err.Error())
			continue
		}
		if rec.ID != id {
			discard(id, path, fmt.Sprintf("job record names %q", rec.ID))
			continue
		}
		j := newJob(true)
		exec, err := s.buildExec(rec.Request, j)
		if err != nil {
			discard(id, path, "invalid request: "+err.Error())
			continue
		}
		if _, err := s.enqueue(rec.Request, j, exec, id); err != nil {
			if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, ErrDraining) {
				return recovered, nil
			}
			discard(id, path, "enqueue: "+err.Error())
			continue
		}
		recovered = append(recovered, id)
	}
	return recovered, nil
}
