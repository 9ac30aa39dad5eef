package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"cocoa"
)

// submitJob is postJob without t.Fatal, safe to call from soak goroutines.
func submitJob(ts *httptest.Server, req JobRequest) (JobStatus, int, error) {
	var st JobStatus
	b, err := json.Marshal(req)
	if err != nil {
		return st, 0, err
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return st, resp.StatusCode, err
		}
	}
	return st, resp.StatusCode, nil
}

// TestSwarmScaleSoak drives cocoad the way a swarm-experiment client would:
// eight concurrent `scale` sweeps against a two-worker service with a
// two-slot queue, retrying through 429 backpressure, with a batch of
// mid-flight cancellations — then verifies every job reached a terminal
// state, surviving results decode to the expected sweep, the service
// observed real backpressure, and no goroutines leak after drain. `make
// check` runs this under -race, where the soak doubles as a data-race
// probe of the scale path (spatial index included) under the runner's
// worker pool.
func TestSwarmScaleSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 2, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())

	// Keeper jobs run a light sweep so the soak stays fast; self-canceling
	// jobs run the full 1000-robot sweep with hour-long runs, which takes
	// 2.3–2.4 s uncanceled on a 2-CPU host (at 120 s runs it took 70–100
	// ms, close enough to a cancel's round trip for one job to finish
	// first). A cancel issued microseconds after acceptance takes effect at
	// the next cooperative check, so the soak does not wait for the sweep.
	light := JobRequest{
		Experiment: "scale",
		Options: &cocoa.ExperimentOptions{
			Seed:               1,
			DurationS:          120,
			NumRobots:          250, // caps the sweep at [25, 100, 250]
			CalibrationSamples: 40000,
		},
	}
	heavy := JobRequest{
		Experiment: "scale",
		Options: &cocoa.ExperimentOptions{
			Seed:               1,
			DurationS:          3600,
			NumRobots:          1000,
			CalibrationSamples: 40000,
		},
	}

	const jobs = 8
	// Submissions 1, 4 and 6 cancel themselves the moment they are
	// accepted — at that instant the job is queued or freshly running, so
	// the cancel is genuinely mid-flight, not a race against completion.
	selfCancel := map[int]bool{1: true, 4: true, 6: true}
	var (
		mu       sync.Mutex
		ids      []string
		canceled = map[string]bool{}
		rejected int
	)
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := light
			if selfCancel[i] {
				req = heavy
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				st, code, err := submitJob(ts, req)
				if err != nil {
					errs <- err
					return
				}
				switch code {
				case http.StatusAccepted:
					mu.Lock()
					ids = append(ids, st.ID)
					mu.Unlock()
					if selfCancel[i] {
						resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
						if err != nil {
							errs <- err
							return
						}
						resp.Body.Close()
						switch resp.StatusCode {
						case http.StatusAccepted:
							mu.Lock()
							canceled[st.ID] = true
							mu.Unlock()
						case http.StatusConflict: // lost the race: already terminal
						default:
							errs <- fmt.Errorf("cancel %s: status %d", st.ID, resp.StatusCode)
						}
					}
					return
				case http.StatusTooManyRequests:
					mu.Lock()
					rejected++
					mu.Unlock()
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("still 429 after 60s")
						return
					}
					time.Sleep(10 * time.Millisecond)
				default:
					errs <- fmt.Errorf("submit status %d", code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(ids) != jobs {
		t.Fatalf("accepted %d jobs, want %d", len(ids), jobs)
	}
	// Eight near-simultaneous sweeps against four admission slots: the
	// storm itself must have produced backpressure.
	if rejected == 0 {
		t.Error("no submission saw 429 backpressure during the storm")
	}

	done, midflight := 0, 0
	for _, id := range ids {
		st := waitTerminal(t, ts, id)
		switch st.State {
		case StateDone:
			done++
			var rows []cocoa.ScaleRow
			if resp := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &rows); resp.StatusCode != http.StatusOK {
				t.Fatalf("result %s: status %d", id, resp.StatusCode)
			}
			if len(rows) != 3 || rows[0].Robots != 25 || rows[1].Robots != 100 || rows[2].Robots != 250 {
				t.Fatalf("job %s: unexpected sweep %+v", id, rows)
			}
		case StateCanceled:
			midflight++
			if !canceled[id] {
				t.Errorf("job %s canceled without a cancel request", id)
			}
		default:
			t.Errorf("job %s ended %s (error %q)", id, st.State, st.Error)
		}
	}
	t.Logf("soak: %d done, %d canceled mid-flight, %d submissions saw 429", done, midflight, rejected)
	if done < jobs-len(canceled) {
		t.Errorf("%d jobs done, want at least %d", done, jobs-len(canceled))
	}
	// Every self-cancel targets a sweep far too heavy to finish first, so
	// each one must have interrupted its job while queued or running.
	if midflight != len(selfCancel) {
		t.Errorf("%d of %d cancels landed mid-flight", midflight, len(selfCancel))
	}

	// Drain and hold the package's goroutine-leak bound at swarm configs.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after soak: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
