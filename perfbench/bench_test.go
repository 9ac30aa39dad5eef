package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"mac method", []string{"cocoa/internal/mac.(*Medium).beginReception", "cocoa/internal/sim.(*Simulator).Run"}, "mac"},
		{"std leaf under radio", []string{"math.archLog", "math.log", "cocoa/internal/radio.Model.SampleRSSI", "cocoa/internal/mac.(*Medium).beginReception"}, "radio"},
		{"runtime leaf", []string{"runtime.mallocgc", "runtime.newobject", "cocoa/internal/bayes.(*Grid).Apply"}, "runtime"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{"no repo frame", []string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"}, "std"},
		{"benchmark frames are not in-repo", []string{"bytes.Equal", "main.(*service).roundTrip"}, "std"},
		{"root package", []string{"cocoa.RunContext"}, "cocoa"},
		{"internal cocoa closure", []string{"cocoa/internal/cocoa.(*Team).flush.func1"}, "cocoa"},
		{"generic instantiation", []string{"cocoa/internal/runner.Map[go.shape.struct {}].func1"}, "runner"},
		{"generic receiver", []string{"cocoa/internal/runner.(*Pool[go.shape.[]uint8]).worker"}, "runner"},
		{"telemetry joins obs", []string{"sync/atomic.(*Int64).Add", "cocoa/internal/telemetry.(*Counter).Inc"}, "obs"},
		{"sub-package", []string{"cocoa/internal/checkpoint/difftest.Run"}, "checkpoint"},
		{"serve handler over std", []string{"encoding/json.(*encodeState).marshal", "cocoa/internal/serve.writeJSON", "net/http.HandlerFunc.ServeHTTP"}, "serve"},
		{"empty stack", nil, "std"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	cpu := map[string]int64{"bayes": 7_000_000, "mac": 1_230_000, "runtime": 10_000_001, "std": 3}
	var sum float64
	for _, v := range shares(cpu) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if got := shares(map[string]int64{}); len(got) != 0 {
		t.Fatalf("shares of nothing = %v, want empty", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want int // tenths of a percent; 0 means none qualifies
	}{
		{0, 0}, {19, 0}, {20, 500}, {40, 750}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if (c.want == 0) == ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", c.n, got, ok, c.want)
		}
		if ok && c.n-percentileRank(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", c.n, float64(got)/10, minBeyond)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, unsorted
	}
	if got := percentile(xs, 950); got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
}

// TestHostRefScales checks the normalisation arithmetic on hand-made
// bursts: local windows, the time-weighted rate scale and the fallbacks.
func TestHostRefScales(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := &hostRef{
		ms: []float64{6, 6, 24, 24},
		at: []time.Time{t0.Add(time.Second), t0.Add(time.Second), t0.Add(10 * time.Second), t0.Add(10 * time.Second)},
	}
	// An operation near the fast bursts runs at twice the nominal speed.
	if got := h.localScale(t0, 500); got != refNominalMs/6 {
		t.Errorf("localScale near fast bursts = %v, want %v", got, refNominalMs/6)
	}
	if got := h.localScale(t0.Add(9*time.Second), 500); got != refNominalMs/24 {
		t.Errorf("localScale near slow bursts = %v, want %v", got, refNominalMs/24)
	}
	// Far from every burst: the pass's trimmed-mean scale.
	if got, want := h.localScale(t0.Add(time.Hour), 500), refNominalMs/15; got != want {
		t.Errorf("localScale far from bursts = %v, want %v", got, want)
	}
	// One second of operation time near each pair of bursts, weighted
	// equally: the mean of the two local scales.
	h.busy = []time.Time{t0, t0.Add(9 * time.Second)}
	h.busyD = []time.Duration{time.Second, time.Second}
	if got, want := h.rateScale(), (refNominalMs/6+refNominalMs/24)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("rateScale = %v, want %v", got, want)
	}
	var empty hostRef
	if empty.scale() != 1 || empty.rateScale() != 1 {
		t.Errorf("a pass without bursts must scale by 1")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("spec workloads %v, program %v", names, workloadNames)
	}
	check := func(kind string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: spec has %d metrics, program %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: spec %s (%s), program %s (%s)", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestDecodeProfile decodes a real profile written by runtime/pprof: the
// goroutine profile's stacks must include this test.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("goroutine/count") < 0 {
		t.Fatalf("sample types %v lack goroutine/count", p.sampleTypes)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "TestDecodeProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no stack names TestDecodeProfile among %d samples", len(p.samples))
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}
