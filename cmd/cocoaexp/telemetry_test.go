package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cocoa/internal/telemetry"
)

// restoreTelemetryEnabled restores the process-global registry's enable
// flag around a test that turns it on. No test zeroes the registry: the
// delta tables are Diffs of two snapshots, and the snapshot test only
// requires counters to have moved.
func restoreTelemetryEnabled(t *testing.T) {
	t.Helper()
	wasEnabled := telemetry.Default.Enabled()
	t.Cleanup(func() { telemetry.Default.SetEnabled(wasEnabled) })
}

func TestTelemetryFlagWritesSnapshot(t *testing.T) {
	restoreTelemetryEnabled(t)
	path := filepath.Join(t.TempDir(), "telem.json")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "rob-replication", "-telemetry", path}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if !snap.Enabled {
		t.Error("snapshot says telemetry was disabled")
	}
	nonzero := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Value > 0 {
			nonzero[c.Name] = c.Value
		}
	}
	// The acceptance bar: a replication run must move sim, mac, and
	// cocoa instruments.
	for _, name := range []string{"sim.events_dispatched", "mac.sent", "cocoa.beacons_sent"} {
		if nonzero[name] == 0 {
			t.Errorf("counter %s = 0 after a replication run", name)
		}
	}
}

func TestTelemetryFlagInvalidPath(t *testing.T) {
	restoreTelemetryEnabled(t)
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-quick", "-fig", "1", "-telemetry", filepath.Join(t.TempDir(), "no", "such", "dir", "t.json")}, &buf, io.Discard)
	if err == nil {
		t.Fatal("unwritable -telemetry path accepted")
	}
}

// Snapshot names must be sorted and unique in every category — the
// stable-order contract downstream diffing depends on.
func TestSnapshotRegistryNamesStable(t *testing.T) {
	restoreTelemetryEnabled(t)
	telemetry.Default.SetEnabled(true)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "failures"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	snap := telemetry.Default.Snapshot()
	categories := map[string][]string{}
	for _, c := range snap.Counters {
		categories["counters"] = append(categories["counters"], c.Name)
	}
	for _, g := range snap.Gauges {
		categories["gauges"] = append(categories["gauges"], g.Name)
	}
	for _, h := range snap.Histograms {
		categories["histograms"] = append(categories["histograms"], h.Name)
	}
	for _, s := range snap.Spans {
		categories["spans"] = append(categories["spans"], s.Name)
	}
	if len(categories["counters"]) == 0 {
		t.Fatal("no counters registered after a run")
	}
	for cat, names := range categories {
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s not sorted: %v", cat, names)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Errorf("duplicate %s name %q", cat, n)
			}
			seen[n] = true
		}
	}
}

// -telemetry composes with -cpuprofile: both files must materialize and
// the run must succeed.
func TestTelemetryWithCPUProfile(t *testing.T) {
	restoreTelemetryEnabled(t)
	dir := t.TempDir()
	telem := filepath.Join(dir, "t.json")
	prof := filepath.Join(dir, "cpu.pprof")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "1", "-telemetry", telem, "-cpuprofile", prof}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{telem, prof} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (err=%v)", p, err)
		}
	}
}

// lockedBuffer is a bytes.Buffer safe for run's logger to write while the
// test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The debug server serves expvar and pprof while a sweep is in flight, and
// run closes it before returning. The paper-scale replication sweep runs
// five deployments one after another, so the probes land after the first
// and well before the last; the test then cancels the sweep.
func TestDebugAddrServesExpvarAndPprof(t *testing.T) {
	restoreTelemetryEnabled(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var errBuf lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-parallel", "1", "-fig", "rob-replication", "-debug-addr", "127.0.0.1:0"}, io.Discard, &errBuf)
	}()

	// The actual address is announced on stderr.
	const marker = "http://"
	deadline := time.Now().Add(time.Minute)
	var base string
	for base == "" {
		if line := errBuf.String(); strings.Contains(line, "/debug/vars") {
			i := strings.Index(line, marker)
			base = strings.TrimSuffix(strings.Fields(line[i:])[0], "/debug/vars")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address announced: %q", errBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Run-layer counters publish as runs finish; wait for the first.
	for {
		var vars struct {
			Telemetry telemetry.Snapshot `json:"telemetry"`
		}
		if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
			t.Fatalf("expvar payload not JSON: %v", err)
		}
		ran := false
		for _, c := range vars.Telemetry.Counters {
			ran = ran || c.Name == "mac.sent" && c.Value > 0
		}
		if vars.Telemetry.Enabled && ran {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expvar telemetry never counted a run: %+v", vars.Telemetry)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Contains(get("/debug/pprof/"), []byte("profile")) {
		t.Error("pprof index missing profile links")
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if resp, err := http.Get(base + "/debug/vars"); err == nil {
		resp.Body.Close()
		t.Error("debug server still serving after run returned")
	}
}

func TestDebugAddrInvalid(t *testing.T) {
	restoreTelemetryEnabled(t)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "1", "-debug-addr", "256.0.0.1:bad"}, &buf, io.Discard); err == nil {
		t.Fatal("unusable -debug-addr accepted")
	}
}

// With -progress and telemetry on, each experiment appends a counter
// delta table to the progress stream — and those deltas are identical at
// any parallelism, because only sim-deterministic quantities print.
func TestTelemetryDeltaTableDeterministic(t *testing.T) {
	restoreTelemetryEnabled(t)
	table := func(parallel int) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "t.json")
		var buf, errBuf bytes.Buffer
		args := []string{"-quick", "-fig", "failures", "-progress",
			"-telemetry", path, "-parallel", fmt.Sprint(parallel)}
		if err := run(context.Background(), args, &buf, &errBuf); err != nil {
			t.Fatal(err)
		}
		// Keep only the delta table lines; run counters are interleaved
		// with \r progress updates.
		var lines []string
		for _, l := range strings.Split(errBuf.String(), "\n") {
			if strings.HasPrefix(l, "    ") || strings.HasPrefix(l, "  telemetry:") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	serial := table(1)
	if !strings.Contains(serial, "telemetry:") || !strings.Contains(serial, "cocoa.fixes") {
		t.Fatalf("delta table missing expected lines:\n%s", serial)
	}
	if parallel := table(4); parallel != serial {
		t.Errorf("telemetry delta differs across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
