package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cocoa"
)

// quickCfg is a small deployment that completes in tens of milliseconds.
func quickCfg(seed int64) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRobots = 10
	cfg.NumEquipped = 5
	cfg.DurationS = 120
	cfg.Calibration.Samples = 40000
	cfg.GridCellM = 8
	return cfg
}

// postJob submits a request and decodes the response body into out.
func postJob(t *testing.T, ts *httptest.Server, req JobRequest, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

// getJSON fetches a URL and decodes it.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitTerminal polls a job over HTTP until it leaves the active states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// The headline determinism guarantee: results fetched over HTTP under
// concurrency are byte-identical to direct cocoa.Run calls.
func TestServedResultsByteIdenticalUnderConcurrency(t *testing.T) {
	const jobs = 8
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: jobs})

	want := make([][]byte, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cocoa.Run(quickCfg(int64(i + 1)))
			if err != nil {
				t.Error(err)
				return
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Error(err)
				return
			}
			want[i] = b
		}(i)
	}
	wg.Wait()

	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		cfg := quickCfg(int64(i + 1))
		var st JobStatus
		resp := postJob(t, ts, JobRequest{Config: &cfg}, &st)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st := waitTerminal(t, ts, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: status %d", id, resp.StatusCode)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("job %d: served result differs from direct cocoa.Run bytes", i)
		}
	}
}

func TestExperimentJobRunsRegistryEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	var st JobStatus
	resp := postJob(t, ts, JobRequest{
		Experiment: "fig9",
		Options: &JobOptions{
			Seed: 1, DurationS: 120, NumRobots: 10,
			CalibrationSamples: 40000, GridCellM: 8, Parallelism: 2,
		},
	}, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.Kind != "fig9" {
		t.Errorf("kind = %q, want fig9", st.Kind)
	}
	end := waitTerminal(t, ts, st.ID)
	if end.State != StateDone {
		t.Fatalf("state %s: %s", end.State, end.Error)
	}
	if end.RunsTotal == 0 || end.RunsDone != end.RunsTotal {
		t.Errorf("progress %d/%d, want complete with nonzero total", end.RunsDone, end.RunsTotal)
	}
	var rows []cocoa.Fig9Row
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &rows)
	if len(rows) != 4 {
		t.Errorf("fig9 rows = %d, want 4", len(rows))
	}
}

func TestSubmitErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	bad := quickCfg(1)
	bad.NumRobots = 0
	// Finite corners whose width overflows to +Inf: once a panic in the
	// worker, now a validation error naming the field.
	inf := quickCfg(1)
	inf.Area = cocoa.Rect{Min: cocoa.Vec2{X: -1e308, Y: -1e308}, Max: cocoa.Vec2{X: 1e308, Y: 1e308}}
	cfg := quickCfg(1)
	cases := []struct {
		name      string
		req       JobRequest
		code      int
		wantField string
		wantErr   string
	}{
		{"invalid config", JobRequest{Config: &bad}, http.StatusBadRequest, "NumRobots", ""},
		{"infinite area", JobRequest{Config: &inf}, http.StatusBadRequest, "Area", ""},
		{"neither", JobRequest{}, http.StatusBadRequest, "", "exactly one"},
		{"both", JobRequest{Config: &cfg, Experiment: "fig9"}, http.StatusBadRequest, "", "exactly one"},
		{"unknown experiment", JobRequest{Experiment: "fig99"}, http.StatusBadRequest, "", "unknown experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body errorBody
			resp := postJob(t, ts, tc.req, &body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
			if body.Field != tc.wantField {
				t.Errorf("field %q, want %q", body.Field, tc.wantField)
			}
			if tc.wantErr != "" && !strings.Contains(body.Error, tc.wantErr) {
				t.Errorf("error %q missing %q", body.Error, tc.wantErr)
			}
		})
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown job", func(t *testing.T) {
		resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d, want 404", resp.StatusCode)
		}
	})
}

// A client built against a release that still had Config.NeighborIndex and
// Config.GridStats may keep sending them. The keys are ignored: the job is
// accepted and serves the bytes of the same config without them.
func TestSubmitIgnoresRetiredConfigKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	cfg := quickCfg(2)
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(withRetiredKeys(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	if end := waitTerminal(t, ts, st.ID); end.State != StateDone {
		t.Fatalf("state %s (%s)", end.State, end.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("result of a config with retired keys differs from the same config without them")
	}
}

// blockingServer wires the runFn seam so tests control job lifetimes.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, chan struct{}) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`"done"`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, ts, started, release
}

func TestQueueFullReturns429(t *testing.T) {
	_, ts, started, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2, RetryAfter: 3 * time.Second})
	defer close(release)

	// One running + two queued fill the service.
	for i := 0; i < 3; i++ {
		var st JobStatus
		resp := postJob(t, ts, JobRequest{Experiment: "fig9"}, &st)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			<-started // the worker has picked up job 0; 1 and 2 occupy the queue
		}
	}
	var body errorBody
	resp := postJob(t, ts, JobRequest{Experiment: "fig9"}, &body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts, started, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	defer close(release)
	var st JobStatus
	postJob(t, ts, JobRequest{Experiment: "fig9"}, &st)
	<-started
	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	end := waitTerminal(t, ts, st.ID)
	if end.State != StateCanceled {
		t.Errorf("state %s, want canceled", end.State)
	}
	// Result of a canceled job is a 409 with the state in the error.
	r2 := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if r2.StatusCode != http.StatusConflict {
		t.Errorf("result status %d, want 409", r2.StatusCode)
	}
}

func TestJobDeadlineExpires(t *testing.T) {
	_, ts, started, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	defer close(release)
	var st JobStatus
	postJob(t, ts, JobRequest{Experiment: "fig9", TimeoutS: 0.05}, &st)
	<-started
	end := waitTerminal(t, ts, st.ID)
	if end.State != StateFailed {
		t.Fatalf("state %s, want failed", end.State)
	}
	if !strings.Contains(end.Error, "deadline") {
		t.Errorf("error %q, want deadline mention", end.Error)
	}
}

func TestDeadlineWhileQueuedNeverRuns(t *testing.T) {
	s, ts, started, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	var first JobStatus
	postJob(t, ts, JobRequest{Experiment: "fig9"}, &first)
	<-started
	// Queued behind the blocker with a deadline shorter than the block.
	var queued JobStatus
	postJob(t, ts, JobRequest{Experiment: "fig9", TimeoutS: 0.05}, &queued)
	time.Sleep(100 * time.Millisecond)
	close(release)
	end := waitTerminal(t, ts, queued.ID)
	if end.State != StateFailed || !strings.Contains(end.Error, "deadline") {
		t.Errorf("queued job ended %s (%q), want deadline failure", end.State, end.Error)
	}
	// The blocker itself finishes normally.
	if st := waitTerminal(t, ts, first.ID); st.State != StateDone {
		t.Errorf("blocker ended %s", st.State)
	}
	_ = s
}

func TestEventsStreamDeliversTransitions(t *testing.T) {
	_, ts, started, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	var st JobStatus
	postJob(t, ts, JobRequest{Experiment: "fig9"}, &st)
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	close(release)
	dec := json.NewDecoder(resp.Body)
	var states []State
	for {
		var ev JobStatus
		if err := dec.Decode(&ev); err != nil {
			break
		}
		states = append(states, ev.State)
		if ev.State.Terminal() {
			break
		}
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("stream states %v, want trailing done", states)
	}
}

func TestHealthAndExperimentsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	var health struct {
		Status   string `json:"status"`
		Workers  int    `json:"workers"`
		Capacity int    `json:"capacity"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz %d %q", resp.StatusCode, health.Status)
	}
	if health.Workers != 2 || health.Capacity != 4 {
		t.Errorf("health reports workers=%d capacity=%d", health.Workers, health.Capacity)
	}
	var exp struct {
		Experiments []experimentInfo `json:"experiments"`
	}
	getJSON(t, ts.URL+"/v1/experiments", &exp)
	if len(exp.Experiments) != len(cocoa.Experiments()) {
		t.Errorf("experiments = %d, want %d", len(exp.Experiments), len(cocoa.Experiments()))
	}
	var telem struct {
		Counters []json.RawMessage `json:"counters"`
	}
	if resp := getJSON(t, ts.URL+"/v1/telemetry", &telem); resp.StatusCode != http.StatusOK {
		t.Errorf("telemetry %d", resp.StatusCode)
	}
}

func TestListJobsInSubmissionOrder(t *testing.T) {
	_, ts, _, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	defer close(release)
	var ids []string
	for i := 0; i < 3; i++ {
		var st JobStatus
		postJob(t, ts, JobRequest{Experiment: "fig9"}, &st)
		ids = append(ids, st.ID)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if j.ID != ids[i] {
			t.Errorf("position %d: %s, want %s", i, j.ID, ids[i])
		}
	}
}

// The drain contract: in-flight and queued jobs finish, later submissions
// are rejected with 503, and the process leaks no goroutines — the
// SIGTERM path of cmd/cocoad minus the signal itself.
func TestShutdownDrainsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte(`"drained"`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	var ids []string
	for i := 0; i < 4; i++ {
		var st JobStatus
		postJob(t, ts, JobRequest{Experiment: "fig9"}, &st)
		ids = append(ids, st.ID)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Intake must reject while the drain is in progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var body errorBody
		resp := postJob(t, ts, JobRequest{Experiment: "fig9"}, &body)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never saw 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("healthz during drain: %d %q", resp.StatusCode, health.Status)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s ended %s, want done (accepted jobs finish)", id, st.State)
		}
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	// Goroutine counts settle asynchronously (worker teardown, HTTP
	// keep-alives); poll before declaring a leak.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after drain: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	hang := make(chan struct{})
	defer close(hang)
	s.runFn = func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-hang:
			return nil, errors.New("never")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	j, err := s.Submit(JobRequest{Experiment: "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	// The straggler was hard-canceled and settled before Shutdown returned.
	st := j.Status()
	if !st.State.Terminal() {
		t.Errorf("job still %s after deadline-bounded drain", st.State)
	}
}

func TestSubmitAfterShutdownReturnsDraining(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Experiment: "fig9"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestTimeoutPolicyClamping(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute, MaxTimeout: 2 * time.Minute})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	cases := []struct {
		reqS float64
		want time.Duration
	}{
		{0, time.Minute},       // default applies
		{30, 30 * time.Second}, // explicit below cap
		{600, 2 * time.Minute}, // clamped to cap
		{0.5, 500 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := s.timeout(JobRequest{TimeoutS: tc.reqS}); got != tc.want {
			t.Errorf("timeout(%v) = %v, want %v", tc.reqS, got, tc.want)
		}
	}
}

func TestSmokeFamilyParsing(t *testing.T) {
	// The debug mux is part of this package's surface; start it on :0 to
	// cover the listener path alongside a vars probe.
	addr, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug vars status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("telemetry")) {
		t.Error("/debug/vars missing telemetry variable")
	}
}
