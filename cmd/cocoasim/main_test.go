package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cocoa"
)

// fastArgs shrinks a run so the CLI tests stay quick.
func fastArgs(extra ...string) []string {
	base := []string{
		"-robots", "10", "-equipped", "5", "-duration", "120", "-T", "30",
		"-grid", "4",
	}
	return append(base, extra...)
}

func TestRunCoCoAMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-mode", "cocoa"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mean error over time", "fix rate", "energy", "MAC"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunOdometryMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-mode", "odometry"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "fix rate") {
		t.Error("odometry mode printed RF statistics")
	}
	if !strings.Contains(out, "mode=odometry-only") {
		t.Errorf("output missing mode line:\n%s", out)
	}
}

func TestRunRFMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-mode", "rf"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mode=rf-only") {
		t.Error("output missing rf-only mode line")
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-csv"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,avg_error_m\n") {
		t.Errorf("CSV header missing:\n%.80s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 100 {
		t.Errorf("CSV too short: %d lines", lines)
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-mode", "teleport"), &buf); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-equipped", "999"), &buf); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-json"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"mode": "cocoa"`, `"meanErrorM"`, `"energySavings"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
}

func TestRunSeriesFiles(t *testing.T) {
	dir := t.TempDir()
	series := dir + "/series.csv"
	robots := dir + "/robots.csv"
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-series", series, "-robots-out", robots), &buf); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{series, robots} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "time_s,") {
			t.Errorf("%s missing CSV header: %.40s", path, data)
		}
	}
}

func TestRunSeriesFileError(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-series", "/no/such/dir/x.csv"), &buf); err == nil {
		t.Fatal("unwritable series path accepted")
	}
}

func TestRunUncoordinated(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-no-coordination"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.0x savings") {
		t.Errorf("uncoordinated run should report 1.0x savings:\n%s", buf.String())
	}
}

func TestRunEventsFile(t *testing.T) {
	dir := t.TempDir()
	events := dir + "/events.jsonl"
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-events", events), &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"fix"`) {
		t.Errorf("event log lacks fix events: %.120s", data)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines < 10 {
		t.Errorf("only %d events logged", lines)
	}
}

func TestRunLocalizerBackends(t *testing.T) {
	for _, backend := range []string{"particle", "ekf"} {
		var buf bytes.Buffer
		if err := run(context.Background(), fastArgs("-localizer", backend), &buf); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-localizer", "psychic"), &buf); err == nil {
		t.Fatal("unknown localizer accepted")
	}
}

func TestRunRoughTerrain(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-mode", "odometry", "-terrain", "3"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean error over time") {
		t.Error("summary missing")
	}
}

func TestRunPrintConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-print-config", "-T", "50", "-robots", "30", "-equipped", "15", "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	var cfg cocoa.Config
	if err := json.Unmarshal(buf.Bytes(), &cfg); err != nil {
		t.Fatalf("output is not a Config: %v", err)
	}
	if cfg.BeaconPeriodS != 50 || cfg.NumRobots != 30 || cfg.NumEquipped != 15 || cfg.Seed != 7 {
		t.Errorf("flags not reflected: T=%v robots=%d equipped=%d seed=%d",
			cfg.BeaconPeriodS, cfg.NumRobots, cfg.NumEquipped, cfg.Seed)
	}
	// The emitted config must be directly submittable: it validates as-is.
	if err := cfg.Validate(); err != nil {
		t.Errorf("printed config does not validate: %v", err)
	}
}

// pollCanceled is a context that cancels itself on its k-th Err poll. The
// simulation loop polls Err once at the end of every sampling tick, so a
// run under it is interrupted mid-flight at a fixed point, with no timing
// involved: the stand-in for SIGINT.
type pollCanceled struct {
	context.Context
	done  chan struct{}
	polls atomic.Int64
	k     int64
}

func newPollCanceled(k int64) *pollCanceled {
	return &pollCanceled{Context: context.Background(), done: make(chan struct{}), k: k}
}

func (c *pollCanceled) Done() <-chan struct{} { return c.done }

func (c *pollCanceled) Err() error {
	n := c.polls.Add(1)
	if n == c.k {
		close(c.done)
	}
	if n >= c.k {
		return context.Canceled
	}
	return nil
}

// An interrupted run returns context.Canceled and writes none of its
// output files: no summary, no series, no per-robot matrix, no trace and
// no partial event log. Running the same flags again is the whole of
// recovery, and it prints the uninterrupted run's exact output.
func TestRunInterruptedWritesNothing(t *testing.T) {
	dir := t.TempDir()
	outputs := []string{"series.csv", "robots.csv", "events.jsonl", "run.trace.json"}
	args := fastArgs("-mode", "cocoa", "-json",
		"-series", filepath.Join(dir, outputs[0]),
		"-robots-out", filepath.Join(dir, outputs[1]),
		"-events", filepath.Join(dir, outputs[2]),
		"-trace-out", filepath.Join(dir, outputs[3]))

	var partial bytes.Buffer
	err := run(newPollCanceled(20), args, &partial)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err=%v, want context.Canceled", err)
	}
	if partial.Len() != 0 {
		t.Errorf("interrupted run printed %q", partial.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("interrupted run left %s", e.Name())
	}

	var rerun, full bytes.Buffer
	if err := run(context.Background(), args, &rerun); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), fastArgs("-mode", "cocoa", "-json"), &full); err != nil {
		t.Fatal(err)
	}
	if rerun.String() != full.String() {
		t.Fatalf("rerun summary differs from an uninterrupted run's:\n%s\n%s", rerun.String(), full.String())
	}
	for _, name := range outputs {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("rerun did not write %s: %v", name, err)
		}
	}
}

func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/run.trace.json"
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-trace-out", path, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := cocoa.ReadTrace(f)
	if err != nil {
		t.Fatalf("written trace fails the strict decoder: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e.Name] = true
	}
	for _, want := range []string{"run", "sampling-window", "mac-frame", "belief-update"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
}

func TestRunTraceOutUnwritable(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), fastArgs("-trace-out", t.TempDir()+"/no/such/dir/t.json", "-json"), &buf)
	if err == nil {
		t.Fatal("unwritable -trace-out accepted")
	}
}

func TestRunRejectsBadLogFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-log-format", "yaml"), &buf); err == nil {
		t.Error("unknown -log-format accepted")
	}
	if err := run(context.Background(), fastArgs("-log-level", "loud"), &buf); err == nil {
		t.Error("unknown -log-level accepted")
	}
}
