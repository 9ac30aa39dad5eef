package main

// The smoke check proves the service end to end: it boots the real HTTP
// stack on a loopback port, submits a golden-family config through the
// public API, fetches the result, and requires the summarized outcome to
// be byte-identical to the checked-in internal/scenario/testdata file —
// the same bar the golden regression test holds direct cocoa.Run calls
// to. JSON float64 round-trips are exact (shortest-representation
// encoding), so a byte-equal summary means the served result is the
// direct result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cocoa"
	"cocoa/internal/obs"
	"cocoa/internal/scenario"
	"cocoa/internal/serve"
)

// smokeFamily extracts the golden family name from a testdata path like
// internal/scenario/testdata/golden_odometry.json.
func smokeFamily(path string) (string, error) {
	base := filepath.Base(path)
	rest, okPrefix := strings.CutPrefix(base, "golden_")
	name, okSuffix := strings.CutSuffix(rest, ".json")
	if !okPrefix || !okSuffix {
		return "", fmt.Errorf("smoke: %q is not a golden_<family>.json file", base)
	}
	return name, nil
}

func runSmoke(srv *serve.Server, goldenPath string, w io.Writer) error {
	family, err := smokeFamily(goldenPath)
	if err != nil {
		return err
	}
	cfg, ok := scenario.QuickFamilies()[family]
	if !ok {
		return fmt.Errorf("smoke: unknown golden family %q", family)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "smoke: serving on %s, submitting family %q\n", base, family)

	body, err := json.Marshal(serve.JobRequest{Config: &cfg})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("smoke: submit returned %d", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Minute)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: job %s still %s after 5m", st.ID, st.State)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("smoke: job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: result returned %d", resp.StatusCode)
	}
	var res cocoa.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}

	got, err := json.MarshalIndent(res.Summary(), "", "  ")
	if err != nil {
		return err
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		return fmt.Errorf("smoke: served result for family %q drifted from %s\ngot:\n%swant:\n%s",
			family, goldenPath, got, want)
	}
	fmt.Fprintf(w, "smoke: family %q byte-identical to %s\n", family, goldenPath)
	return smokeMetrics(base, w)
}

// smokeMetrics scrapes the freshly exercised server's /metrics endpoint
// and runs the full in-repo exposition lint over it, so every `make
// check` proves the Prometheus surface stays parseable and well-formed
// with real job and simulation series present. The report goes to w.
func smokeMetrics(base string, w io.Writer) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: /metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		return fmt.Errorf("smoke: /metrics content type %q, want %q", ct, obs.ContentType)
	}
	exp, err := obs.LintReader(resp.Body)
	if err != nil {
		return fmt.Errorf("smoke: /metrics failed exposition lint: %w", err)
	}
	for _, name := range []string{"cocoad_jobs", "cocoad_pool_workers", "cocoad_pool_queued", "cocoad_pool_inflight", "go_goroutines"} {
		if _, ok := exp.Families[name]; !ok {
			return fmt.Errorf("smoke: /metrics missing expected family %q", name)
		}
	}
	fmt.Fprintf(w, "smoke: /metrics lint clean (%d families)\n", len(exp.Order))
	return nil
}
