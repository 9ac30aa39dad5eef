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
	"slices"
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

// waitGone polls until path no longer exists (a job releases its record
// after its terminal transition is published).
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

// wantEntries fails unless the state directory holds exactly want, in
// name order, each subdirectory named with a trailing slash.
func wantEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		}
		got = append(got, name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("state dir holds %q, want %q", got, want)
	}
}

// writeLegacyRecord lays a record out as releases before the one-file
// layout did: a directory named id holding job.json. It returns the
// directory.
func writeLegacyRecord(t *testing.T, stateDir, id string, rec jobRecord) string {
	t.Helper()
	dir := filepath.Join(stateDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The restart guarantee end to end, in-process: a daemon hard-stopped
// mid-job leaves the job's record behind; a new daemon over the same
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
	// The state directory holds the job's record and nothing else.
	record := recordPath(stateDir, j.ID())
	wantEntries(t, stateDir, j.ID()+".json")
	// Leave the job record as an older release would have: its config
	// carries the retired reference selectors.
	ageJobRecord(t, record)

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
	waitGone(t, record)

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

// ageJobRecord rewrites a job's record with the retired config keys, as
// releases that still had them wrote it.
func ageJobRecord(t *testing.T, rec string) {
	t.Helper()
	b, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rec, withRetiredKeys(t, b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// State-directory retention: jobs that end on their own terms release
// their record; only process-interrupted jobs keep it. While a job is live
// the state directory holds its one record file and no directory, and
// after each release it is empty.
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
		waitGone(t, recordPath(stateDir, j.ID()))
		wantEntries(t, stateDir)
	})

	t.Run("user cancel releases", func(t *testing.T) {
		cfg := slowCfg(4)
		j, err := s.Submit(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		wantEntries(t, stateDir, j.ID()+".json")
		j.Cancel()
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateCanceled {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		waitGone(t, recordPath(stateDir, j.ID()))
		wantEntries(t, stateDir)
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
		waitGone(t, recordPath(stateDir, j.ID()))
		wantEntries(t, stateDir)
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

// A job killed outright (SIGKILL, OOM) leaves its record alone. Releases
// before the one-file layout kept it as <ID>/job.json, and those that
// wrote snapshots also left latest.ckpt beside it, in either wire version
// they used. Every such job recovers from its record alone, serves the
// uninterrupted run's bytes, and nothing of it, snapshot included, remains
// in the state directory once it settles. Where a crash mid-migration left
// both forms, the file wins.
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
	rec := jobRecord{ID: "job-000001", Request: JobRequest{Config: &cfg}}
	for _, tc := range []struct {
		name    string
		version uint16 // latest.ckpt wire version in a legacy directory; 0 for none
		legacy  bool
		flat    bool
	}{
		{name: "killed", legacy: true},
		{name: "v1", version: 1, legacy: true},
		{name: "v2", version: 2, legacy: true},
		{name: "flat", flat: true},
		{name: "flat and legacy", version: 2, legacy: true, flat: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			if tc.legacy {
				legacyRec := rec
				if tc.flat {
					// The directory's copy would run a different job: only
					// the file may be recovered.
					other := quickCfg(10)
					legacyRec.Request = JobRequest{Config: &other}
				}
				dir := writeLegacyRecord(t, stateDir, rec.ID, legacyRec)
				if tc.version > 0 {
					if err := os.WriteFile(filepath.Join(dir, "latest.ckpt"), olderSnapshot(t, tc.version, cfg), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.flat {
				if err := writeJobRecord(recordPath(stateDir, rec.ID), rec); err != nil {
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
				t.Fatal("rerun from the job record differs from the uninterrupted run")
			}
			waitGone(t, recordPath(stateDir, rec.ID))
			wantEntries(t, stateDir)
		})
	}
}

// RecoverJobs housekeeping: garbage records in either layout and stray
// temp records are discarded, unrelated entries are untouched, the
// sequence counter clears every job-<n> name ever seen, and a stateless
// service recovers nothing.
func TestRecoverJobsHousekeeping(t *testing.T) {
	t.Run("stateless no-op", func(t *testing.T) {
		s := New(Config{Workers: 1})
		ids, err := s.RecoverJobs()
		if err != nil || ids != nil {
			t.Fatalf("got %v, %v", ids, err)
		}
	})

	stateDir := t.TempDir()
	// job-000007: legacy directory without a record (the process died
	// between creating it and the record write) — discarded, but its number
	// still advances the sequence.
	if err := os.MkdirAll(filepath.Join(stateDir, "job-000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	// job-000002: legacy record whose ID disagrees with its directory.
	writeLegacyRecord(t, stateDir, "job-000002", jobRecord{ID: "job-000001", Request: JobRequest{Experiment: "nope"}})
	// job-000003: well-formed record for an experiment that no longer
	// exists — discarded via the normal validation path.
	if err := writeJobRecord(recordPath(stateDir, "job-000003"),
		jobRecord{ID: "job-000003", Request: JobRequest{Experiment: "no-such-experiment"}}); err != nil {
		t.Fatal(err)
	}
	// job-000004: a record that is not JSON.
	if err := os.WriteFile(recordPath(stateDir, "job-000004"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// job-000005: a record naming another job.
	if err := writeJobRecord(recordPath(stateDir, "job-000005"),
		jobRecord{ID: "job-000006", Request: JobRequest{Experiment: "fig9"}}); err != nil {
		t.Fatal(err)
	}
	// job-000009: a temp record the process never renamed (it was killed
	// before the submission was acknowledged) — removed without a warning,
	// but its number still advances the sequence.
	if err := os.WriteFile(filepath.Join(stateDir, ".job-000009.json.tmp"), []byte(`{"id":"job-000009"`), 0o644); err != nil {
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
	// Only the unrelated entries remain.
	wantEntries(t, stateDir, "job-file", "notajob/")
	// Every discarded record leaves a Warn record naming the job and why it
	// could not be recovered.
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
		"job-000004": "unreadable job record",
		"job-000005": `job record names "job-000006"`,
	} {
		if !strings.Contains(warned[id], reason) {
			t.Errorf("%s: warn reason %q, want it to mention %q", id, warned[id], reason)
		}
	}
	if len(warned) != 5 {
		t.Errorf("warned about %d jobs, want 5: %v", len(warned), warned)
	}
	if b, err := os.ReadFile(filepath.Join(stateDir, "job-file")); err != nil || string(b) != "x" {
		t.Errorf("unrelated entry job-file disturbed: %q, %v", b, err)
	}
	cfg := quickCfg(1)
	j, err := s.Submit(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("job-%06d", 10); j.ID() != want {
		t.Fatalf("first post-recovery ID %s, want %s", j.ID(), want)
	}
}

// Recovery follows job numbers, not names: job-%06d grows a seventh digit
// at one million, and job-1000000 sorts before job-999999 as a string.
// With room for one job, the older one is recovered and the newer one is
// left on disk for the next restart, in both layouts.
func TestRecoverOrdersByJobNumber(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			stateDir := t.TempDir()
			for _, id := range []string{"job-999999", "job-1000000"} {
				rec := jobRecord{ID: id, Request: JobRequest{Experiment: "fig9"}}
				if legacy {
					writeLegacyRecord(t, stateDir, id, rec)
				} else if err := writeJobRecord(recordPath(stateDir, id), rec); err != nil {
					t.Fatal(err)
				}
			}
			s := New(Config{Workers: 1, QueueDepth: 1, StateDir: stateDir})
			defer s.Shutdown(context.Background())
			s.runFn = func(context.Context, *Job) ([]byte, error) { return []byte(`"done"`), nil }
			// Occupy the only worker, so the queue admits exactly one job.
			// The worker is freed before Shutdown waits for it, on every
			// path out of the test.
			started, release := make(chan struct{}), make(chan struct{})
			var freeOnce sync.Once
			free := func() { freeOnce.Do(func() { close(release) }) }
			defer free()
			if err := s.pool.TrySubmit(func() { close(started); <-release }); err != nil {
				t.Fatal(err)
			}
			<-started
			ids, err := s.RecoverJobs()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, []string{"job-999999"}) {
				t.Fatalf("recovered %v, want [job-999999]", ids)
			}
			free()
			j, _ := s.Job("job-999999")
			if st := waitJobTerminal(t, j, StateQueued, StateResumed); st.State != StateDone {
				t.Fatalf("state %s (%s)", st.State, st.Error)
			}
			waitGone(t, recordPath(stateDir, "job-999999"))
			wantEntries(t, stateDir, "job-1000000.json")
			q := quickCfg(1)
			next, err := s.Submit(JobRequest{Config: &q})
			if err != nil {
				t.Fatal(err)
			}
			if next.ID() != "job-1000001" {
				t.Errorf("first post-recovery ID %s, want job-1000001", next.ID())
			}
		})
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
	rec, err := readJobRecord(filepath.Join(dir, "job.json"))
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

// A submission whose record cannot be written is a server fault: it
// answers 500, logs an Error naming the job and its record path, moves no
// client-input rejection counter, and gives its job ID back.
func TestSubmitPersistFailure(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Creating a file beneath a regular file fails, even for root.
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
		logged = logged || attrs["job"] == "job-000001" && attrs["path"] == recordPath(stateDir, "job-000001")
	}
	if !logged {
		t.Error("no Error record naming job-000001 and its record path")
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
