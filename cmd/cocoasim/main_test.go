package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cocoa"
	icocoa "cocoa/internal/cocoa"
	"cocoa/internal/eventlog"
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
	// A print cadence below 1 would never advance (0) or index before the
	// series (negative); it is rejected before any run starts.
	for _, every := range []string{"0", "-1"} {
		if err := run(context.Background(), fastArgs("-every", every), &buf); err == nil {
			t.Errorf("-every %s accepted", every)
		}
	}
	// Non-finite floats parse as flags but never reach a run: each is a
	// *ConfigError naming its field.
	for _, tc := range []struct{ flag, value, field string }{
		{"-T", "NaN", "BeaconPeriodS"},
		{"-T", "+Inf", "BeaconPeriodS"},
		{"-t", "NaN", "TransmitPeriodS"},
		{"-duration", "NaN", "DurationS"},
		{"-duration", "+Inf", "DurationS"},
		{"-terrain", "NaN", "TerrainAmplitude"},
		{"-terrain", "+Inf", "TerrainAmplitude"},
	} {
		err := run(context.Background(), fastArgs(tc.flag, tc.value), &buf)
		var ce *cocoa.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s %s: err = %v, want a *ConfigError naming %s", tc.flag, tc.value, err, tc.field)
		}
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

// -events and -trace-out are two views of one event stream: every trace
// record of a run stands for one of its logged events.
func TestRunEventsAndTraceAreOneStream(t *testing.T) {
	dir := t.TempDir()
	evPath, trPath := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "run.trace.json")
	var buf bytes.Buffer
	if err := run(context.Background(), fastArgs("-events", evPath, "-trace-out", trPath, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	evFile, err := os.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer evFile.Close()
	events, err := eventlog.Read(evFile)
	if err != nil {
		t.Fatal(err)
	}
	trFile, err := os.Open(trPath)
	if err != nil {
		t.Fatal(err)
	}
	defer trFile.Close()
	records, err := cocoa.ReadTrace(trFile)
	if err != nil {
		t.Fatal(err)
	}

	stats := eventlog.Stats(events)
	updates := 0
	for _, e := range events {
		if (e.Kind == icocoa.EventFix || e.Kind == icocoa.EventFixMissed) && e.Beacons > 0 {
			updates++
		}
	}
	spans := map[string]int{}
	for _, r := range records {
		if r.Phase != "E" {
			spans[r.Name]++
		}
	}
	for _, c := range []struct {
		span string
		want int
	}{
		{"mac-frame", stats[icocoa.EventBeaconSent]},
		{"belief-update", updates},
		{"sampling-window", stats[icocoa.EventWindowStart]},
	} {
		if c.want == 0 || spans[c.span] != c.want {
			t.Errorf("%d %s records in the trace, want %d from the event log", spans[c.span], c.span, c.want)
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

// runOut runs cocoasim with args and returns its stdout.
func runOut(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("cocoasim %s: %v", strings.Join(args, " "), err)
	}
	return buf.Bytes()
}

// runResult runs the Config cocoasim assembles from args through the
// library, giving the Result behind cocoasim's output for those flags.
func runResult(t *testing.T, args ...string) *cocoa.Result {
	t.Helper()
	var cfg cocoa.Config
	if err := json.Unmarshal(runOut(t, append(args, "-print-config")...), &cfg); err != nil {
		t.Fatal(err)
	}
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readCSV parses a CSV cocoasim wrote; encoding/csv rejects ragged rows.
func readCSV(t *testing.T, data []byte) [][]string {
	t.Helper()
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("empty CSV")
	}
	return records
}

// parseFloat parses one CSV cell, failing the test on malformed input.
func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// -json decodes into the summary type and re-encodes to the same bytes,
// and its embedded part is exactly the Result.Summary of the same config.
func TestRunJSONRoundTrip(t *testing.T) {
	out := runOut(t, fastArgs("-json")...)
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	var got summary
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(again, '\n')) != string(out) {
		t.Errorf("re-encoded summary differs:\n%s\nwant:\n%s", again, out)
	}
	res := runResult(t, fastArgs()...)
	if got.Summary != res.Summary() {
		t.Errorf("embedded summary %+v, want Result.Summary %+v", got.Summary, res.Summary())
	}
	if got.Mode != "cocoa" || got.Localizer != "grid" || got.NumRobots != 10 || got.Seed != 1 {
		t.Errorf("config echo: %+v", got)
	}
	if got.FixRate == nil || *got.FixRate != res.FixRate() ||
		got.EnergySavings == nil || *got.EnergySavings != res.EnergySavings() {
		t.Errorf("ratios fixRate=%v energySavings=%v, want %v %v",
			got.FixRate, got.EnergySavings, res.FixRate(), res.EnergySavings())
	}
}

// The -json keys are the config echo, every Result.Summary key and the
// extras; the keys of the summary that predates the shared projection
// keep their names, except macFramesSent, which is now macSent.
func TestRunJSONKeys(t *testing.T) {
	want := []string{
		"mode", "localizer", "numRobots", "numEquipped", "vmaxMps", "beaconPeriodS",
		"transmitPeriodS", "beaconsPerWindow", "durationS", "seed", "coordinated",
		"meanErrorM", "maxAvgErrorM", "finalAvgErrorM", "samples",
		"fixes", "missedWindows", "beaconsApplied", "syncsReceived",
		"totalEnergyJ", "noSleepEnergyJ",
		"macSent", "macDelivered", "macCollided", "macMissedAsleep",
		"faultDrops", "crashes",
		"fixRate", "energySavings", "reportsSent", "reportsDelivered",
		"mrmmDataSent", "mrmmForwarders", "mrmmQueriesSent", "mrmmDataDelivers",
	}
	dec := json.NewDecoder(bytes.NewReader(runOut(t, fastArgs("-json")...)))
	var got []string
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if key, ok := tok.(string); ok && dec.More() {
			got = append(got, key)
			if _, err := dec.Token(); err != nil { // the value
				t.Fatal(err)
			}
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("keys:\n%v\nwant:\n%v", got, want)
	}
}

// Every mode and localizer yields valid JSON. An odometry-only run has no
// RF windows, so its undefined fix rate is left out rather than NaN.
func TestRunJSONAllModes(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "odometry"}, {"-mode", "rf"}, {"-mode", "cocoa"},
		{"-localizer", "grid"}, {"-localizer", "particle"}, {"-localizer", "ekf"},
	} {
		out := runOut(t, fastArgs(append(args, "-json")...)...)
		var got map[string]any
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		_, hasFix := got["fixRate"]
		if hasFix == (args[1] == "odometry") {
			t.Errorf("%v: fixRate present=%v", args, hasFix)
		}
	}
}

// With reporting on, the summary carries the report counters and their
// delivery rate; with it off, the undefined rate is left out.
func TestSummaryCarriesReporting(t *testing.T) {
	res := runResult(t, fastArgs()...)
	if s := summarize(res); s.ReportsSent != 0 || s.ReportDelivery != nil {
		t.Errorf("reporting off: sent=%d delivery=%v", s.ReportsSent, s.ReportDelivery)
	}
	cfg := res.Config
	cfg.EnableReporting = true
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(res)
	if s.ReportsSent == 0 {
		t.Fatal("summary lost the reporting counters")
	}
	if s.ReportDelivery == nil || *s.ReportDelivery <= 0 || *s.ReportDelivery > 1 {
		t.Errorf("ReportDelivery = %v", s.ReportDelivery)
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"reportDelivery"`) {
		t.Errorf("JSON missing reportDelivery: %s", out)
	}
}

// -csv on stdout and the -series file are the same bytes, and they parse
// back to the Result's series at their printed precision.
func TestRunSeriesCSVRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.csv")
	stdout := runOut(t, fastArgs("-csv", "-series", path)...)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout, file) {
		t.Fatalf("-csv stdout differs from -series file:\n%.200s\nwant:\n%.200s", stdout, file)
	}
	records := readCSV(t, file)
	if strings.Join(records[0], ",") != "time_s,avg_error_m" {
		t.Fatalf("header %v", records[0])
	}
	res := runResult(t, fastArgs()...)
	if len(records)-1 != len(res.Times) {
		t.Fatalf("%d rows, want %d", len(records)-1, len(res.Times))
	}
	for k, rec := range records[1:] {
		if math.Abs(parseFloat(t, rec[0])-res.Times[k]) > 1e-3 ||
			math.Abs(parseFloat(t, rec[1])-res.AvgError[k]) > 1e-6 {
			t.Fatalf("row %d = %v, want %v,%v", k, rec, res.Times[k], res.AvgError[k])
		}
	}
}

func TestRunPerRobotCSVShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "robots.csv")
	runOut(t, fastArgs("-robots-out", path)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := readCSV(t, data)
	res := runResult(t, fastArgs()...)
	if len(records) != len(res.Times)+1 {
		t.Fatalf("%d lines, want %d", len(records), len(res.Times)+1)
	}
	header := records[0]
	if len(header) != len(res.TrackedIDs)+1 || header[0] != "time_s" || !strings.HasPrefix(header[1], "robot_") {
		t.Fatalf("header %v, want time_s and %d robot columns", header, len(res.TrackedIDs))
	}
}

// The per-robot matrix parses back to the Result: one robot_<id> column
// per tracked robot in order, one row per sample instant.
func TestRunPerRobotCSVRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "robots.csv")
	runOut(t, fastArgs("-robots-out", path)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := readCSV(t, data)
	res := runResult(t, fastArgs()...)
	for i, id := range res.TrackedIDs {
		if col := records[0][i+1]; col != "robot_"+strconv.Itoa(id) {
			t.Fatalf("column %d = %q, want robot_%d", i+1, col, id)
		}
	}
	for k, rec := range records[1:] {
		if math.Abs(parseFloat(t, rec[0])-res.Times[k]) > 1e-3 {
			t.Fatalf("time[%d] = %s, want %v", k, rec[0], res.Times[k])
		}
		for i := range res.TrackedIDs {
			if v := parseFloat(t, rec[i+1]); math.Abs(v-res.PerRobot[i][k]) > 1e-6 {
				t.Fatalf("robot %d sample %d = %v, want %v", i, k, v, res.PerRobot[i][k])
			}
		}
	}
}
