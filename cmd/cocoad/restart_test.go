package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"cocoa"
	"cocoa/internal/serve"
)

// syncBuf lets the test read the daemon goroutine's stderr while it is
// still being written.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`msg="cocoad listening" addr=http://([^ ]+) `)

// startDaemon runs the daemon in-process on an ephemeral port and waits
// for its listen line. The returned channel yields run's error on exit.
func startDaemon(t *testing.T, buf *syncBuf, args ...string) (baseURL string, done chan error) {
	t.Helper()
	done = make(chan error, 1)
	go func() { done <- run(args, buf) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(buf.String()); m != nil {
			return "http://" + m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sigterm interrupts the in-process daemon the way an init system would.
func sigterm(t *testing.T, done chan error) error {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
		return nil
	}
}

// The daemon-level restart guarantee: SIGTERM mid-job, then a new daemon
// over the same state directory reruns the job from its record alone
// and serves bytes identical to an uninterrupted direct run.
func TestRestartAfterSIGTERMResumesJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full restart round-trip; skipped in -short")
	}
	// The runtime starts a process-wide signal-dispatch goroutine on the
	// first Notify and never stops it; warm it up so the leak baseline
	// counts it on both sides.
	warmCtx, warmStop := signal.NotifyContext(context.Background(), syscall.SIGUSR1)
	warmStop()
	<-warmCtx.Done()
	before := runtime.NumGoroutine()
	stateDir := t.TempDir()

	cfg := cocoa.DefaultConfig()
	cfg.Seed = 11
	cfg.NumRobots = 40
	cfg.NumEquipped = 20
	cfg.DurationS = 1800
	cfg.Calibration.Samples = 40000
	cfg.GridCellM = 2

	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	// Daemon A: submit, wait until the job is 40 ticks in, SIGTERM. The
	// tiny drain timeout turns the graceful drain into the hard kill a
	// slow job would see from an impatient init system.
	bufA := &syncBuf{}
	urlA, doneA := startDaemon(t, bufA, "-addr", "127.0.0.1:0",
		"-state-dir", stateDir, "-workers", "1", "-drain-timeout", "1ms")
	body, err := json.Marshal(serve.JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(urlA+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		r, err := http.Get(urlA + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur serve.JobStatus
		err = json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Tick >= 40 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never reached tick 40: state %s tick %d", cur.State, cur.Tick)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sigterm(t, doneA); err != nil {
		t.Fatalf("daemon A exit: %v", err)
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != st.ID+".json" || entries[0].IsDir() {
		t.Fatalf("state dir holds %v after SIGTERM, want the job's record %s.json alone", entries, st.ID)
	}

	// Daemon B: same state directory; the job must come back by itself.
	bufB := &syncBuf{}
	urlB, doneB := startDaemon(t, bufB, "-addr", "127.0.0.1:0",
		"-state-dir", stateDir, "-workers", "1")
	if want := `msg="resuming job from state dir" job=` + st.ID; !bytes.Contains([]byte(bufB.String()), []byte(want)) {
		t.Fatalf("daemon B did not announce recovery; stderr:\n%s", bufB.String())
	}
	var fin serve.JobStatus
	for deadline := time.Now().Add(120 * time.Second); ; {
		r, err := http.Get(urlB + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&fin)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fin.State.Terminal() {
			break
		}
		if s := fin.State; s != serve.StateQueued && s != serve.StateResumed {
			t.Fatalf("recovered job in state %s, want queued/resumed", s)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", fin.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fin.State != serve.StateDone || !fin.Resumed {
		t.Fatalf("recovered job: state=%s resumed=%v (%s)", fin.State, fin.Resumed, fin.Error)
	}
	r, err := http.Get(urlB + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", r.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served resumed result differs from uninterrupted direct run")
	}
	if err := sigterm(t, doneB); err != nil {
		t.Fatalf("daemon B exit: %v", err)
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
