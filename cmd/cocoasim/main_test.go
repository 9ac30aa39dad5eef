package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"cocoa"
	"cocoa/internal/checkpoint/difftest"
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

// An interrupted run with -checkpoint leaves a snapshot that -resume
// completes to the uninterrupted run's exact output; an uninterrupted run
// leaves nothing.
func TestRunCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := dir + "/latest.ckpt"
	var full bytes.Buffer
	if err := run(context.Background(), fastArgs("-mode", "cocoa", "-checkpoint", dir, "-json"), &full); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("uninterrupted run left a snapshot: %v", err)
	}

	var partial bytes.Buffer
	err := run(difftest.PollCanceled(20), fastArgs("-mode", "cocoa", "-checkpoint", dir, "-json"), &partial)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err=%v, want context.Canceled", err)
	}
	snap, err := cocoa.ReadSnapshot(ckpt)
	if err != nil {
		t.Fatalf("interrupted run left no snapshot: %v", err)
	}
	if snap.TickIndex < 1 || snap.TickIndex >= 120 {
		t.Fatalf("snapshot at tick %d, want mid-run", snap.TickIndex)
	}
	var resumed bytes.Buffer
	if err := run(context.Background(), []string{"-resume", ckpt, "-json"}, &resumed); err != nil {
		t.Fatal(err)
	}
	if full.String() != resumed.String() {
		t.Fatalf("resumed summary differs from the full run's:\n%s\n%s",
			full.String(), resumed.String())
	}
}

func TestRunResumeMissingSnapshot(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-resume", t.TempDir() + "/nope.ckpt"}, &buf)
	if err == nil {
		t.Fatal("resume from a missing snapshot succeeded")
	}
}

func TestRunResumeCorruptSnapshot(t *testing.T) {
	path := t.TempDir() + "/bad.ckpt"
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-resume", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("corrupt snapshot: err=%v, want a checkpoint format error", err)
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
