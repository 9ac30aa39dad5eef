package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cocoa"
	"cocoa/internal/telemetry"
)

// slowCfg is a deployment heavy enough (dense grid, 40 robots) that its
// tick loop runs for hundreds of milliseconds — wide enough to interrupt
// reliably — while still finishing fast enough for a test suite.
func slowCfg(seed int64) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRobots = 40
	cfg.NumEquipped = 20
	cfg.DurationS = 1800
	cfg.Calibration.Samples = 40000
	cfg.GridCellM = 2
	return cfg
}

// waitJobTerminal polls a job through the in-process API until it
// settles, asserting every observed pre-terminal state is one of allowed.
func waitJobTerminal(t *testing.T, j *Job, allowed ...State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		ok := false
		for _, a := range allowed {
			if st.State == a {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("job %s in unexpected pre-terminal state %s", st.ID, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitGone polls until path no longer exists (a job releases its state
// directory after its terminal transition is published).
func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still exists", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The restart guarantee end to end, in-process: a daemon hard-stopped
// mid-job leaves the job's job.json behind; a new daemon over the same
// state directory recovers the job, runs it again from that record alone,
// and serves result bytes identical to an uninterrupted direct run — with
// no goroutine left behind by either instance.
func TestRestartResumesDrainKilledJob(t *testing.T) {
	before := runtime.NumGoroutine()
	stateDir := t.TempDir()
	cfg := slowCfg(7)

	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	// Instance A: accept the job, wait until it is 40 ticks in, then
	// hard-stop (an already-expired drain context cancels in-flight work,
	// exactly what a deadline-killed daemon does on SIGTERM).
	a := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir})
	j, err := a.Submit(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); j.Status().Tick < 40; {
		if st := j.Status(); st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never reached tick 40: state %s tick %d", st.State, st.Tick)
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	_ = a.Shutdown(expired)
	st := j.Status()
	if st.State != StateCanceled {
		t.Fatalf("after hard drain: state %s (%s), want canceled", st.State, st.Error)
	}
	// The job's directory holds its request and nothing else.
	entries, err := os.ReadDir(filepath.Join(stateDir, j.ID()))
	if err != nil {
		t.Fatalf("drain-killed job lost its state: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "job.json" {
		t.Fatalf("drain-killed job's directory holds %v, want job.json alone", entries)
	}
	// Leave the job record as an older release would have: its config
	// carries the retired reference selectors.
	ageJobRecord(t, filepath.Join(stateDir, j.ID()))

	// Instance B: recover, rerun, finish.
	b := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir})
	ids, err := b.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != j.ID() {
		t.Fatalf("recovered %v, want [%s]", ids, j.ID())
	}
	rj, ok := b.Job(j.ID())
	if !ok {
		t.Fatalf("recovered job %s not tracked", j.ID())
	}
	// A recovered job executes as "resumed", never plain "running".
	rst := waitJobTerminal(t, rj, StateQueued, StateResumed)
	if rst.State != StateDone {
		t.Fatalf("recovered job: state %s (%s)", rst.State, rst.Error)
	}
	if !rst.Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	got, ok := rj.Result()
	if !ok {
		t.Fatal("no result on recovered job")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from uninterrupted direct run")
	}
	waitGone(t, filepath.Join(stateDir, j.ID()))

	// The restored sequence counter keeps new IDs clear of recovered ones.
	q := quickCfg(1)
	j2, err := b.Submit(JobRequest{Config: &q})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() <= j.ID() {
		t.Fatalf("new job ID %s not above recovered %s", j2.ID(), j.ID())
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// withRetiredKeys returns the JSON document b with "NeighborIndex":"scan",
// "GridStats":"eager" and "UpdateWorkers":8 added to every config object in
// it (recognised by its NumRobots key). Older releases carried those Config
// fields; they selected result-equivalent reference paths or worker counts
// and are now ignored.
func withRetiredKeys(t *testing.T, b []byte) []byte {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	var doc any
	if err := d.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var add func(v any)
	add = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			if _, ok := v["NumRobots"]; ok {
				v["NeighborIndex"] = "scan"
				v["GridStats"] = "eager"
				v["UpdateWorkers"] = 8
			}
			for _, x := range v {
				add(x)
			}
		case []any:
			for _, x := range v {
				add(x)
			}
		}
	}
	add(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"NeighborIndex":"scan"`)) {
		t.Fatalf("no config object in %s", b)
	}
	return out
}

// ageJobRecord rewrites a job's job.json with the retired config keys, as
// releases that still had them wrote it.
func ageJobRecord(t *testing.T, dir string) {
	t.Helper()
	rec := filepath.Join(dir, "job.json")
	b, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rec, withRetiredKeys(t, b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// State-directory retention: jobs that end on their own terms release
// their directory; only process-interrupted jobs keep it.
func TestStateDirLifecycle(t *testing.T) {
	stateDir := t.TempDir()
	s := New(Config{Workers: 2, QueueDepth: 8, StateDir: stateDir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	t.Run("done releases", func(t *testing.T) {
		cfg := quickCfg(3)
		j, err := s.Submit(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateDone {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		waitGone(t, filepath.Join(stateDir, j.ID()))
	})

	t.Run("user cancel releases", func(t *testing.T) {
		cfg := slowCfg(4)
		j, err := s.Submit(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(stateDir, j.ID(), "job.json")); err != nil {
			t.Fatalf("accepted job not persisted: %v", err)
		}
		j.Cancel()
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateCanceled {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		waitGone(t, filepath.Join(stateDir, j.ID()))
	})

	// A job past its own deadline has failed for good: keeping its state
	// would rerun it, with a fresh deadline, after every restart.
	t.Run("deadline releases", func(t *testing.T) {
		cfg := slowCfg(5)
		j, err := s.Submit(JobRequest{Config: &cfg, TimeoutS: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJobTerminal(t, j, StateQueued, StateRunning)
		if st.State != StateFailed {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		waitGone(t, filepath.Join(stateDir, j.ID()))
		fresh := New(Config{Workers: 1, StateDir: stateDir})
		defer fresh.Shutdown(context.Background())
		if ids, err := fresh.RecoverJobs(); err != nil || len(ids) != 0 {
			t.Fatalf("fresh server recovered %v (err=%v), want nothing", ids, err)
		}
	})
}

// olderSnapshot frames a snapshot the way releases that wrote latest.ckpt
// did: the magic "cocoackp", a little-endian u16 wire version, the u32
// payload length, the payload's CRC32 (IEEE), then the JSON payload
// carrying the config, the capture tick and state digests.
func olderSnapshot(t *testing.T, version uint16, cfg cocoa.Config) []byte {
	t.Helper()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{
		"tick": 1, "sim_now_s": 1, "config": json.RawMessage(cfgJSON),
		"digests": []map[string]any{{"name": "sim", "sum": 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []byte("cocoackp")
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// A job killed outright (SIGKILL, OOM) leaves job.json alone; one left by
// a release that wrote snapshots also holds latest.ckpt, in either wire
// version it used. Every such job recovers from job.json alone, serves the
// uninterrupted run's bytes, and its directory, snapshot included, is
// removed when it settles.
func TestRecoverOldSnapshotVersionReruns(t *testing.T) {
	cfg := quickCfg(9)
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{0, 1, 2} {
		name := fmt.Sprintf("v%d", version)
		if version == 0 {
			name = "killed"
		}
		t.Run(name, func(t *testing.T) {
			stateDir := t.TempDir()
			dir := filepath.Join(stateDir, "job-000001")
			if err := writeJobRecord(dir, jobRecord{ID: "job-000001", Request: JobRequest{Config: &cfg}}); err != nil {
				t.Fatal(err)
			}
			if version > 0 {
				if err := os.WriteFile(filepath.Join(dir, "latest.ckpt"), olderSnapshot(t, version, cfg), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir})
			defer s.Shutdown(context.Background())
			ids, err := s.RecoverJobs()
			if err != nil || len(ids) != 1 {
				t.Fatalf("recovered %v (err=%v), want one job", ids, err)
			}
			j, _ := s.Job(ids[0])
			if st := waitJobTerminal(t, j, StateQueued, StateResumed); st.State != StateDone || !st.Resumed {
				t.Fatalf("state %s resumed=%v (%s)", st.State, st.Resumed, st.Error)
			}
			if got, _ := j.Result(); !bytes.Equal(got, want) {
				t.Fatal("rerun from job.json differs from the uninterrupted run")
			}
			waitGone(t, dir)
		})
	}
}

// RecoverJobs housekeeping: garbage directories are discarded, unrelated
// entries are untouched, the sequence counter clears every job-<n> name
// ever seen, and a stateless service recovers nothing.
func TestRecoverJobsHousekeeping(t *testing.T) {
	t.Run("stateless no-op", func(t *testing.T) {
		s := New(Config{Workers: 1})
		ids, err := s.RecoverJobs()
		if err != nil || ids != nil {
			t.Fatalf("got %v, %v", ids, err)
		}
	})

	stateDir := t.TempDir()
	// job-000007: directory without a record (the process died between
	// MkdirAll and the record write) — discarded, but its number still
	// advances the sequence.
	if err := os.MkdirAll(filepath.Join(stateDir, "job-000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	// job-000002: record whose ID disagrees with its directory.
	if err := writeJobRecord(filepath.Join(stateDir, "job-000002"),
		jobRecord{ID: "job-000001", Request: JobRequest{Experiment: "nope"}}); err != nil {
		t.Fatal(err)
	}
	// job-000003: well-formed record for an experiment that no longer
	// exists — discarded via the normal validation path.
	if err := writeJobRecord(filepath.Join(stateDir, "job-000003"),
		jobRecord{ID: "job-000003", Request: JobRequest{Experiment: "no-such-experiment"}}); err != nil {
		t.Fatal(err)
	}
	// Entries RecoverJobs must ignore entirely.
	if err := os.MkdirAll(filepath.Join(stateDir, "notajob"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, "job-file"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	logs := &captureHandler{}
	s := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir, Logger: slog.New(logs)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ids, err := s.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("recovered %v from garbage", ids)
	}
	for _, gone := range []string{"job-000007", "job-000002", "job-000003"} {
		if _, err := os.Stat(filepath.Join(stateDir, gone)); !os.IsNotExist(err) {
			t.Errorf("%s not discarded", gone)
		}
	}
	// Every discarded directory leaves a Warn record naming the job and
	// why it could not be recovered.
	warned := map[string]string{}
	for _, r := range logs.records() {
		if r.Level == slog.LevelWarn && r.Message == "discarding unrecoverable job" {
			attrs := map[string]string{}
			r.Attrs(func(a slog.Attr) bool {
				attrs[a.Key] = a.Value.String()
				return true
			})
			warned[attrs["job"]] = attrs["reason"]
		}
	}
	for id, reason := range map[string]string{
		"job-000007": "unreadable job record",
		"job-000002": `job record names "job-000001"`,
		"job-000003": "unknown experiment",
	} {
		if !strings.Contains(warned[id], reason) {
			t.Errorf("%s: warn reason %q, want it to mention %q", id, warned[id], reason)
		}
	}
	if len(warned) != 3 {
		t.Errorf("warned about %d jobs, want 3: %v", len(warned), warned)
	}
	for _, kept := range []string{"notajob", "job-file"} {
		if _, err := os.Stat(filepath.Join(stateDir, kept)); err != nil {
			t.Errorf("unrelated entry %s disturbed: %v", kept, err)
		}
	}
	cfg := quickCfg(1)
	j, err := s.Submit(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("job-%06d", 8); j.ID() != want {
		t.Fatalf("first post-recovery ID %s, want %s", j.ID(), want)
	}
}

// A job.json that a release before ExperimentOptions carried JSON tags
// wrote for an experiment job (then serve.JobOptions, same six keys)
// recovers under the new options type and serves the bytes of a direct
// registry run with the same options.
func TestRecoverParentWrittenExperimentJob(t *testing.T) {
	const record = `{"id":"job-000001","request":{"experiment":"fig4","options":` +
		`{"seed":3,"duration_s":120,"num_robots":10,"calibration_samples":40000,"grid_cell_m":8,"parallelism":2}}}`
	stateDir := t.TempDir()
	dir := filepath.Join(stateDir, "job-000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job.json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	// The options type still writes exactly these bytes.
	rec, err := readJobRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(rec); err != nil || string(b) != record {
		t.Fatalf("re-encoded record = %s (%v), want %s", b, err, record)
	}

	s := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ids, err := s.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "job-000001" {
		t.Fatalf("recovered %v, want [job-000001]", ids)
	}
	j, _ := s.Job("job-000001")
	if st := waitJobTerminal(t, j, StateQueued, StateResumed); st.State != StateDone {
		t.Fatalf("state %s: %s", st.State, st.Error)
	}
	got, _ := j.Result()

	d, ok := findExperiment("fig4")
	if !ok {
		t.Fatal("fig4 not registered")
	}
	v, err := d.Run(context.Background(), cocoa.ExperimentOptions{
		Seed: 3, DurationS: 120, NumRobots: 10,
		CalibrationSamples: 40000, GridCellM: 8, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered job's result differs from the direct registry run")
	}
}

// A submission whose job.json cannot be written is a server fault: it
// answers 500, logs an Error naming the job and its state path, moves no
// client-input rejection counter, and gives its job ID back.
func TestSubmitPersistFailure(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// MkdirAll fails beneath a regular file, even for root.
	stateDir := filepath.Join(blocker, "state")
	logs := &captureHandler{}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, StateDir: stateDir, Logger: slog.New(logs)})
	invalid := telemetry.Default.Counter("serve.jobs_rejected_invalid")

	before := invalid.Value()
	cfg := quickCfg(1)
	if resp := postJob(t, ts, JobRequest{Config: &cfg}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := invalid.Value() - before; got != 0 {
		t.Errorf("serve.jobs_rejected_invalid rose by %d on a disk failure", got)
	}
	if b, err := os.ReadFile(blocker); err != nil || string(b) != "x" {
		t.Errorf("state path parent disturbed: %q, %v", b, err)
	}
	var logged bool
	for _, r := range logs.records() {
		if r.Level != slog.LevelError {
			continue
		}
		attrs := map[string]string{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		logged = logged || attrs["job"] == "job-000001" && attrs["path"] == filepath.Join(stateDir, "job-000001")
	}
	if !logged {
		t.Error("no Error record naming job-000001 and its state path")
	}

	// With the disk fixed, the next submission reuses the rolled-back ID.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp := postJob(t, ts, JobRequest{Config: &cfg}, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d after the fix, want 202", resp.StatusCode)
	}
	if st.ID != "job-000001" {
		t.Errorf("first accepted ID %s, want job-000001", st.ID)
	}
	if end := waitTerminal(t, ts, st.ID); end.State != StateDone {
		t.Errorf("state %s: %s", end.State, end.Error)
	}
}

// captureHandler is a slog.Handler that keeps every record it handles, for
// tests that assert on levels and attributes rather than formatted text.
type captureHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// WithAttrs and WithGroup drop the bound attributes: the records a test
// inspects carry theirs inline.
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *captureHandler) WithGroup(string) slog.Handler      { return h }

func (h *captureHandler) records() []slog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]slog.Record(nil), h.recs...)
}
