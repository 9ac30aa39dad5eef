package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cocoa"
	"cocoa/internal/serve"
)

// Service workload shape.
const (
	// servicePool is the number of configs per job kind. Per-config mean
	// error of the cocoa kind varies widely, so the accuracy guard averages
	// many; it stays below caltable's 64-table cache so no job recalibrates.
	servicePool       = 48
	serviceSetupReps  = 50 // server starts per pass, for a median set-up time
	serviceWorkers    = 2  // cocoad's default -workers
	serviceQueue      = 8  // cocoad's default -queue
	serviceCkptTicks  = 60 // snapshot cadence of durable jobs
	serviceMaxClients = 2
	serviceEpoch      = time.Second // client run between reference bursts
)

// service drives cocoad's HTTP API in-process: serve.New + Handler() on a
// real loopback listener, durable mode (a state directory and a snapshot
// every 60 ticks). Two closed-loop clients, never more than nproc, each on
// one connection, run POST /v1/jobs -> GET .../events until terminal ->
// GET .../result and cycle through two job kinds, two odometry jobs to one
// cocoa job:
//
//   - odometry: the paper deployment, odometry only, 60 s. About a
//     millisecond of simulation and a large per-robot series, so serve,
//     HTTP and JSON dominate;
//   - cocoa: a reduced CoCoA deployment (16 robots, 240 s, 4 m cells, 80k
//     calibration samples) that writes snapshots.
//
// Loads: serve, checkpoint, the HTTP/JSON path (std), and for the cocoa
// kind bayes, mrmm, sim and odometry. Every served result is byte-compared
// with a direct cocoa.RunContext of the same config, computed in prepare,
// outside every timed region. Bypasses: runner sweeps (jobs are single
// runs on the service's own pool), ekf.
type service struct {
	tmpDir string
	jobs   [2][]serviceJob
	totals runTotals // over the reference runs
}

type serviceJob struct {
	body     []byte // POST /v1/jobs payload
	want     []byte // the direct run's result JSON
	meanErrM float64
}

// serviceConfigs returns the i-th config of each job kind for a seed.
func serviceConfigs(seed int64, i int) [2]cocoa.Config {
	odo := cocoa.DefaultConfig()
	odo.Mode = cocoa.ModeOdometryOnly
	odo.DurationS = 60
	odo.Seed = (seed+1)*1000 + int64(i)

	co := cocoa.DefaultConfig()
	co.NumRobots, co.NumEquipped = 16, 8
	co.DurationS = 240
	co.GridCellM = 4
	co.Calibration.Samples = 80000
	co.Seed = (seed+1)*1000 + 500 + int64(i)
	return [2]cocoa.Config{odo, co}
}

func (w *service) prepare(ctx context.Context, seed int64) error {
	for i := 0; i < servicePool; i++ {
		for k, cfg := range serviceConfigs(seed, i) {
			res, err := cocoa.RunContext(ctx, cfg)
			if err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			w.totals.add(res)
			want, err := json.Marshal(res)
			if err != nil {
				return err
			}
			body, err := json.Marshal(serve.JobRequest{Config: &cfg})
			if err != nil {
				return err
			}
			w.jobs[k] = append(w.jobs[k], serviceJob{body: body, want: want, meanErrM: res.MeanError()})
		}
	}
	return nil
}

// server is one running service instance.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	dir    string
	base   string
	served chan error
}

// startServer builds a durable server on a fresh state directory and
// returns once /healthz answers 200.
func (w *service) startServer() (*server, error) {
	dir, err := os.MkdirTemp(w.tmpDir, "state-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, served: make(chan error, 1)}
	s.srv = serve.New(serve.Config{Workers: serviceWorkers, QueueDepth: serviceQueue,
		StateDir: dir, CheckpointEveryTicks: serviceCkptTicks})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()

	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server, waits for its serve loop and removes its state.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Shutdown(ctx), os.RemoveAll(s.dir))
	return err
}

// roundTrip is one client-observed job.
type roundTrip struct {
	kind, idx   int
	start       time.Time
	rtMs        float64
	submitMs    float64
	queueWaitMs float64 // POST answered -> first events line past queued
	waitMs      float64 // POST answered -> terminal events line
	fetchMs     float64
	resultBytes int
	eventLines  int
}

func (w *service) run(ctx context.Context, p *pass) (*outcome, error) {
	o := newOutcome()
	var s *server
	for rep := 0; rep < serviceSetupReps; rep++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = w.startServer(); err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		t1 := time.Now()
		p.spans.add(0, 0, "server start", t0, t1)
		o.setupS = append(o.setupS, t1.Sub(t0).Seconds())
	}

	clients := min(serviceMaxClients, runtime.NumCPU())
	echo, err := startRefEcho(w.tmpDir, clients)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("start reference server: %w", err)
	}
	p.ref.width, p.ref.extra = clients, echo.trips
	// One untimed cycle of the job mix per client warms connections and
	// the server's first job path.
	if err := w.drive(ctx, s.base, make([]int, clients), time.Time{}, &pass{}, nil); err != nil {
		s.stop()
		echo.stop()
		return nil, err
	}

	if err := p.reg.begin(); err != nil {
		s.stop()
		echo.stop()
		return nil, err
	}
	trips := make([][]roundTrip, clients)
	record := func(c int, rt roundTrip, err error) {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.attempted++
		if err != nil {
			o.fail(err)
			return
		}
		trips[c] = append(trips[c], rt)
	}
	// The clients run in epochs; the reference bursts fall between them,
	// when no job is in flight.
	next := make([]int, clients)
	deadline := time.Now().Add(p.duration())
	for err == nil && p.ref.err == nil && (o.attempted == 0 || time.Now().Before(deadline)) {
		t0 := time.Now()
		err = w.drive(ctx, s.base, next, t0.Add(serviceEpoch), p, record)
		o.busyS += time.Since(t0).Seconds()
		p.ref.after(time.Since(t0))
	}
	err = errors.Join(err, p.ref.err)
	if rerr := p.reg.end(); err == nil {
		err = rerr
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	if eerr := echo.stop(); err == nil {
		err = eerr
	}
	if err != nil {
		return nil, err
	}

	var submit, queue, wait, fetch, kb, lines []float64
	var kindMs [2][]float64
	served := map[[2]int]bool{}
	for _, ts := range trips {
		for _, rt := range ts {
			o.runs++
			o.opMs = append(o.opMs, rt.rtMs)
			o.opStart = append(o.opStart, rt.start)
			kindMs[rt.kind] = append(kindMs[rt.kind], rt.rtMs)
			submit = append(submit, rt.submitMs)
			queue = append(queue, rt.queueWaitMs)
			wait = append(wait, rt.waitMs)
			fetch = append(fetch, rt.fetchMs)
			kb = append(kb, float64(rt.resultBytes)/1024)
			lines = append(lines, float64(rt.eventLines))
			served[[2]int{rt.kind, rt.idx}] = true
		}
	}
	var errs []float64
	for k, jobs := range w.jobs {
		for i, job := range jobs {
			if served[[2]int{k, i}] {
				errs = append(errs, job.meanErrM)
			}
		}
	}
	o.meanErrM = mean(errs)
	o.report["rt_p50_ms"] = median(o.opMs)
	if p10, ok := tailPercentile(len(o.opMs)); ok && p10 >= 950 {
		o.report["rt_p95_ms"] = percentile(o.opMs, 950)
	}
	o.report["jobs_per_s"] = ratio(float64(o.runs), o.busyS)
	o.report["rt_p50_ms_odometry"] = median(kindMs[0])
	o.report["rt_p50_ms_cocoa"] = median(kindMs[1])
	o.layer["mrmm.data_delivery_ratio"] = w.totals.mrmmRatio()
	o.layer["serve.submit_ms_p50"] = median(submit)
	o.layer["serve.queue_wait_ms_p50"] = median(queue)
	o.layer["serve.exec_ms_p50"] = median(wait)
	o.layer["serve.result_fetch_ms_p50"] = median(fetch)
	o.layer["serve.result_kb_mean"] = mean(kb)
	o.layer["serve.events_lines_per_job"] = mean(lines)
	return o, nil
}

// drive runs one closed-loop client per entry of next until deadline; a
// zero deadline makes each client do one cycle of the job mix. next[c]
// is client c's position in the job mix and carries over between calls.
// record, when non-nil, receives every round trip (concurrently from the
// clients).
func (w *service) drive(ctx context.Context, base string, next []int, deadline time.Time, p *pass, record func(c int, rt roundTrip, err error)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(next))
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			for n := 0; ; n++ {
				if deadline.IsZero() {
					if n == 3 {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				j := next[c]
				next[c]++
				// Two odometry jobs, then one cocoa job: a fixed 2:1 mix keeps
				// the median latency inside the odometry mode instead of in the
				// gap between the two kinds' latencies.
				kind := (c + j) % 3 / 2
				idx := (j/3 + c*servicePool/2) % servicePool
				rt, err := w.roundTrip(ctx, hc, base, kind, idx, p)
				if record != nil {
					record(c, rt, err)
				} else if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// roundTrip submits one job, follows its events to a terminal state and
// fetches and checks its result.
func (w *service) roundTrip(ctx context.Context, hc *http.Client, base string, kind, idx int, p *pass) (roundTrip, error) {
	job := w.jobs[kind][idx]
	rt := roundTrip{kind: kind, idx: idx}
	parent := p.spans.reserve()

	t0 := time.Now()
	var st serve.JobStatus
	code, body, err := doRequest(ctx, hc, http.MethodPost, base+"/v1/jobs", job.body)
	t1 := time.Now()
	p.spans.add(0, parent, "POST /v1/jobs", t0, t1)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		return rt, err
	}

	var running, terminal time.Time
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return rt, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return rt, fmt.Errorf("events: %w", err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rt.eventLines++
		var ev serve.JobStatus
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return rt, fmt.Errorf("events line: %w", err)
		}
		now := time.Now()
		if running.IsZero() && ev.State != serve.StateQueued {
			running = now
		}
		if ev.State.Terminal() {
			terminal, st = now, ev
		}
	}
	err = sc.Err()
	resp.Body.Close()
	t2 := time.Now()
	p.spans.add(0, parent, "GET events", t1, t2)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("events: %s", resp.Status)
	}
	if err == nil && (terminal.IsZero() || st.State != serve.StateDone) {
		err = fmt.Errorf("job %s ended %q: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		return rt, err
	}

	code, body, err = doRequest(ctx, hc, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil)
	t3 := time.Now()
	p.spans.add(0, parent, "GET result", t2, t3)
	p.spans.add(parent, 0, "round trip", t0, t3)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	if err == nil && !bytes.Equal(body, job.want) {
		err = fmt.Errorf("job %s: served result differs from the direct run (%d vs %d bytes)", st.ID, len(body), len(job.want))
	}
	if err != nil {
		return rt, err
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	rt.start = t0
	rt.rtMs = ms(t0, t3)
	rt.submitMs = ms(t0, t1)
	rt.queueWaitMs = ms(t1, running)
	rt.waitMs = ms(t1, terminal)
	rt.fetchMs = ms(t2, t3)
	rt.resultBytes = len(body)
	return rt, nil
}

// doRequest performs one request and reads the whole response body.
func doRequest(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// Shape of the service workload's reference round trips.
const (
	refEchoTrips   = 4         // per goroutine per burst
	refEchoBody    = 1 << 10   // bytes posted, about a job submission
	refEchoPayload = 128 << 10 // bytes fetched, about an odometry result
)

// refEcho is a loopback HTTP server of the benchmark's own. The service
// workload's reference bursts add round trips through it: a POST whose
// handler writes and renames a file, then a GET of a result-sized body.
// That is the net/http, TCP and file-system path cocoad's handlers take,
// which the CPU kernel alone did not follow (service's spread stayed at
// 0.16 with it), and none of the program's code runs on it.
type refEcho struct {
	hs      *http.Server
	base    string
	dir     string
	served  chan error
	clients []*http.Client
	body    []byte
}

func startRefEcho(tmpDir string, clients int) (*refEcho, error) {
	dir, err := os.MkdirTemp(tmpDir, "echo-")
	if err != nil {
		return nil, err
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), refEchoPayload/16)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /put", func(rw http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		name := filepath.Join(dir, "c"+r.URL.Query().Get("c"))
		if err == nil {
			err = os.WriteFile(name+".tmp", b, 0o644)
		}
		if err == nil {
			err = os.Rename(name+".tmp", name+".json")
		}
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /get", func(rw http.ResponseWriter, r *http.Request) {
		rw.Write(payload)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &refEcho{hs: &http.Server{Handler: mux}, base: "http://" + ln.Addr().String(), dir: dir,
		served: make(chan error, 1), body: bytes.Repeat([]byte("x"), refEchoBody)}
	go func() { e.served <- e.hs.Serve(ln) }()
	for range clients {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return e, nil
}

// trips is goroutine g's share of a burst, on its own connection.
func (e *refEcho) trips(g int) error {
	ctx := context.Background()
	for range refEchoTrips {
		code, _, err := doRequest(ctx, e.clients[g], http.MethodPost, fmt.Sprintf("%s/put?c=%d", e.base, g), e.body)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("reference put: HTTP %d", code)
		}
		if err != nil {
			return err
		}
		code, b, err := doRequest(ctx, e.clients[g], http.MethodGet, e.base+"/get", nil)
		if err == nil && (code != http.StatusOK || len(b) != refEchoPayload) {
			err = fmt.Errorf("reference get: HTTP %d, %d bytes", code, len(b))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stop closes the clients' connections, shuts the server down, waits for
// its serve loop and removes its files.
func (e *refEcho) stop() error {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(e.dir))
}
