package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cocoa"
	"cocoa/internal/telemetry"
)

// scratchGeometries are three run-slot shapes a raw-config job can leave
// behind for the next one: the paper deployment in odometry-only mode (no
// grids, a large per-robot series), the service benchmark's reduced CoCoA
// deployment (16 robots on 4 m cells), and a non-default rectangular area
// (grids a slot cannot reuse for the other two).
func scratchGeometries(seed int64) []cocoa.Config {
	odo := cocoa.DefaultConfig()
	odo.Mode = cocoa.ModeOdometryOnly
	odo.DurationS = 60
	odo.Seed = seed

	co := cocoa.DefaultConfig()
	co.NumRobots, co.NumEquipped = 16, 8
	co.DurationS = 240
	co.GridCellM = 4
	co.Calibration.Samples = 80000
	co.Seed = seed

	area := quickCfg(seed)
	area.Area = cocoa.Rect{Max: cocoa.Vec2{X: 160, Y: 100}}
	return []cocoa.Config{odo, co, area}
}

// freshBytes is the reference a served result must equal: the JSON of a
// direct cold-memory run of the same config.
func freshBytes(t testing.TB, cfg cocoa.Config) []byte {
	t.Helper()
	res, err := cocoa.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Raw-config jobs run on recycled run slots, so every job inherits the
// memory of the one before it on the same worker: a run canceled mid-way,
// a run killed by its own deadline, a traced run, and runs of other
// geometries. None of that may show in a served result.
func TestSlotReuseInvisibleInResults(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	submit := func(req JobRequest) *Job {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	checkDone := func(j *Job, cfg cocoa.Config) {
		t.Helper()
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", j.ID(), st.State, st.Error)
		}
		got, _ := j.Result()
		if string(got) != string(freshBytes(t, cfg)) {
			t.Errorf("job %s (seed %d): served bytes differ from a fresh run", j.ID(), cfg.Seed)
		}
	}

	// Canceled by the user mid-run: the slot is returned holding a
	// half-run simulator and grids.
	long := slowCfg(71)
	long.DurationS = 20000
	j := submit(JobRequest{Config: &long})
	for deadline := time.Now().Add(60 * time.Second); j.Status().Tick < 5; {
		if j.Status().State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s never reached tick 5: %+v", j.ID(), j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	if st := waitJobTerminal(t, j, StateRunning); st.State != StateCanceled {
		t.Fatalf("canceled job ended %s (%s)", st.State, st.Error)
	}

	// Stopped by its own deadline.
	late := slowCfg(72)
	j = submit(JobRequest{Config: &late, TimeoutS: 0.05})
	if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateFailed ||
		!strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%q), want a deadline failure", st.State, st.Error)
	}

	// Traced.
	traced := quickCfg(73)
	j = submit(JobRequest{Config: &traced, Trace: true})
	checkDone(j, traced)
	if _, ok := j.Trace(); !ok {
		t.Error("traced job recorded no trace")
	}

	// Three geometries, each twice, interleaved so every job follows one
	// of a different shape.
	var cfgs []cocoa.Config
	for rep := int64(0); rep < 2; rep++ {
		cfgs = append(cfgs, scratchGeometries(74+rep)...)
	}
	jobs := make([]*Job, len(cfgs))
	for i := range cfgs {
		jobs[i] = submit(JobRequest{Config: &cfgs[i]})
	}
	for i, j := range jobs {
		checkDone(j, cfgs[i])
	}
}

// Slot reuse is real, not just harmless: on a warm one-worker server every
// raw-config job after the first is built on a recycled slot. The counter
// is process-wide and monotone, so only its delta is checked.
func TestRawJobsReuseRunSlots(t *testing.T) {
	wasEnabled := telemetry.Default.Enabled()
	telemetry.Default.SetEnabled(true)
	defer telemetry.Default.SetEnabled(wasEnabled)
	reuse := telemetry.Default.Counter("cocoa.scratch_reuse")

	s := New(Config{Workers: 1, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	const n = 4
	before := reuse.Value()
	for i := 0; i < n; i++ {
		cfg := quickCfg(int64(80 + i))
		j, err := s.Submit(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", j.ID(), st.State, st.Error)
		}
	}
	if got := reuse.Value() - before; got < n-1 {
		t.Fatalf("cocoa.scratch_reuse rose by %d over %d jobs, want at least %d", got, n, n-1)
	}
}

// BenchmarkServeRawJob is one in-process submit -> terminal -> result
// round trip per iteration, for each of the service benchmark's job kinds.
// Its bytes/op tracks what a served job allocates.
func BenchmarkServeRawJob(b *testing.B) {
	geos := scratchGeometries(1)
	for _, bc := range []struct {
		name string
		cfg  cocoa.Config
	}{{"odometry", geos[0]}, {"cocoa", geos[1]}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{Workers: 1, QueueDepth: 1})
			defer s.Shutdown(context.Background())
			cfg := bc.cfg
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := s.Submit(JobRequest{Config: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				st, changed := j.Watch()
				for !st.State.Terminal() {
					<-changed
					st, changed = j.Watch()
				}
				if _, ok := j.Result(); !ok {
					b.Fatalf("job %s ended %s (%s)", j.ID(), st.State, st.Error)
				}
			}
		})
	}
}

// BenchmarkServeRoundTrip is one client round trip per iteration over the
// HTTP API, the way the repository benchmark's service workload drives it:
// POST /v1/jobs, follow /events to the terminal line, GET /result, on a
// two-worker server, for that workload's odometry job. memory keeps jobs
// in memory only; durable persists each one in a state directory. Every
// served result is compared with a direct run's bytes.
func BenchmarkServeRoundTrip(b *testing.B) {
	cfg := scratchGeometries(1)[0]
	body, err := json.Marshal(JobRequest{Config: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	want := freshBytes(b, cfg)
	for _, bc := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"durable", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := Config{Workers: 2, QueueDepth: 8}
			if bc.durable {
				c.StateDir = b.TempDir()
			}
			s := New(c)
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Shutdown(context.Background())
			}()
			hc := ts.Client()
			var result bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := roundTrip(b, hc, ts.URL, body, &result); !bytes.Equal(got, want) {
					b.Fatal("served result differs from the direct run")
				}
			}
		})
	}
}

// roundTrip submits body, reads the job's events until its terminal line
// and returns its result, read into buf (reused across calls, so the
// client's own buffer growth stays out of the per-job allocation count).
func roundTrip(b *testing.B, hc *http.Client, base string, body []byte, buf *bytes.Buffer) []byte {
	b.Helper()
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: status %d (%v)", resp.StatusCode, err)
	}
	resp, err = hc.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		b.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	for err == nil && !st.State.Terminal() {
		err = dec.Decode(&st)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || st.State != StateDone {
		b.Fatalf("job %s ended %s %q (%v)", st.ID, st.State, st.Error, err)
	}
	resp, err = hc.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		b.Fatal(err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("result: status %d (%v)", resp.StatusCode, err)
	}
	return buf.Bytes()
}
