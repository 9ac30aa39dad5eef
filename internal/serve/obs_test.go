package serve

// Tests for the observability surface: the Prometheus exposition
// endpoint, live progress and ETA in job statuses, the span-trace
// round-trip through the HTTP API, and the structured service log.

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cocoa/internal/obs"
)

// scrape fetches /metrics and returns the linted exposition.
func scrape(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	exp, err := obs.LintReader(resp.Body)
	if err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	return exp
}

func TestMetricsEndpointLintsClean(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	var st JobStatus
	cfg := quickCfg(31)
	postJob(t, ts, JobRequest{Config: &cfg}, &st)
	waitTerminal(t, ts, st.ID)

	exp := scrape(t, ts.URL)
	for _, fam := range []string{"cocoad_jobs", "cocoad_pool_workers",
		"cocoad_pool_queued", "cocoad_pool_inflight", "cocoad_draining", "go_goroutines"} {
		if _, ok := exp.Families[fam]; !ok {
			t.Errorf("missing family %q", fam)
		}
	}
	// All six job states appear as labeled points; the terminal job counts
	// under state="done".
	jobs := exp.Families["cocoad_jobs"]
	states := map[string]float64{}
	for _, p := range jobs.Points {
		states[p.Labels["state"]] = p.Value
	}
	if len(states) != 6 {
		t.Fatalf("cocoad_jobs states = %v, want all 6", states)
	}
	if states["done"] < 1 {
		t.Errorf("cocoad_jobs{state=done} = %v, want >= 1", states["done"])
	}
}

func TestRequestIDHeaderAssigned(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(id, "req-") {
		t.Errorf("X-Request-ID = %q, want req-NNNNNN", id)
	}
}

func TestTraceJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	var st JobStatus
	cfg := quickCfg(32)
	postJob(t, ts, JobRequest{Config: &cfg, Trace: true}, &st)
	end := waitTerminal(t, ts, st.ID)
	if end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	if !end.TraceAvailable {
		t.Fatal("terminal status does not advertise the trace")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	events, err := obs.ReadTrace(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("served trace fails the strict decoder: %v", err)
	}
	var sawRun bool
	for _, e := range events {
		if e.Name == "run" {
			sawRun = true
		}
	}
	if !sawRun {
		t.Errorf("trace with %d events has no run span", len(events))
	}

	// Progress reached the end: the status reports the final tick.
	if end.Tick == 0 || end.Tick != end.TicksTotal {
		t.Errorf("terminal ticks %d/%d, want full", end.Tick, end.TicksTotal)
	}
	if end.EtaS != 0 {
		t.Errorf("terminal status carries ETA %v", end.EtaS)
	}
}

func TestTraceEndpointErrorStates(t *testing.T) {
	s, ts, started, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	var st JobStatus
	postJob(t, ts, JobRequest{Experiment: "fig9"}, &st)
	<-started

	// Live job: 409 regardless of trace.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("trace of running job: status %d, want 409", resp.StatusCode)
	}

	// While the job runs, its live gauges appear on /metrics. Drive the
	// gauge directly (the runFn seam bypasses the simulation) so the ETA
	// series has a defined value too.
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	j.progress.Start(time.Now().Add(-10 * time.Second))
	j.progress.SetTicks(50, 100)
	exp := scrape(t, ts.URL)
	found := map[string]bool{}
	for _, fam := range []string{"cocoad_job_tick", "cocoad_job_runs_done", "cocoad_job_eta_seconds"} {
		if f, ok := exp.Families[fam]; ok {
			for _, p := range f.Points {
				if p.Labels["job"] == st.ID {
					found[fam] = true
				}
			}
		}
	}
	for _, fam := range []string{"cocoad_job_tick", "cocoad_job_runs_done", "cocoad_job_eta_seconds"} {
		if !found[fam] {
			t.Errorf("live job missing %s{job=%s} series", fam, st.ID)
		}
	}

	// The half-done gauge also surfaces in the status. setRunning already
	// stamped the start time (Start is first-wins), so elapsed wall time —
	// and with it the rounded ETA — is near zero here; the ETA's presence
	// is what the cocoad_job_eta_seconds assertion above proves.
	mid := j.Status()
	if mid.Tick != 50 || mid.TicksTotal != 100 {
		t.Fatalf("live ticks %d/%d, want 50/100", mid.Tick, mid.TicksTotal)
	}
	if mid.EtaS < 0 {
		t.Errorf("EtaS = %v, want >= 0", mid.EtaS)
	}

	close(release)
	end := waitTerminal(t, ts, st.ID)
	if end.State != StateDone {
		t.Fatalf("job ended %s", end.State)
	}

	// Done without tracing: 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of untraced job: status %d, want 404", resp.StatusCode)
	}
}

func TestTraceRejectedForExperimentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var body errorBody
	resp := postJob(t, ts, JobRequest{Experiment: "fig9", Trace: true}, &body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(body.Error, "trace") {
		t.Errorf("error %q does not mention trace", body.Error)
	}
}

// logBuf is a goroutine-safe sink for the service logger.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestServiceLogCarriesJobLifecycle(t *testing.T) {
	buf := &logBuf{}
	logger := slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger})
	var st JobStatus
	cfg := quickCfg(33)
	postJob(t, ts, JobRequest{Config: &cfg}, &st)
	end := waitTerminal(t, ts, st.ID)
	if end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	out := buf.String()
	for _, want := range []string{
		`msg="job accepted" job=` + st.ID,
		`msg="job started"`,
		`msg="job done"`,
		`msg=request`,
		"request_id=req-",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("service log missing %q:\n%s", want, out)
		}
	}
}
