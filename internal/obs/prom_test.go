package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cocoa/internal/telemetry"
)

// testSnapshot builds a registry exercising every instrument kind and
// returns its snapshot.
func testSnapshot(t *testing.T) telemetry.Snapshot {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := reg.Counter("cocoa.sim.windows")
	c.Add(7)
	g := reg.Gauge("cocoa.pool.size")
	g.Set(3)
	tl := telemetry.NewTally([]float64{1, 4, 16})
	for _, v := range []int{0, 2, 2, 40} {
		tl.Observe(v)
	}
	reg.AddTally("cocoa.mac.backoff_slots", &tl)
	sp := reg.Span("cocoa.job.wall")
	sp.Observe(2 * time.Second)
	return reg.Snapshot()
}

func TestWriteMetricsRendersEveryKind(t *testing.T) {
	var buf bytes.Buffer
	extra := []Sample{
		{Name: "cocoad_jobs", Type: "gauge", Help: "Jobs by state.",
			Labels: []Label{{Key: "state", Value: "running"}}, Value: 1},
		{Name: "cocoad_jobs", Type: "gauge",
			Labels: []Label{{Key: "state", Value: "done"}}, Value: 4},
	}
	if err := WriteMetrics(&buf, testSnapshot(t), extra); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cocoa_sim_windows_total counter",
		"cocoa_sim_windows_total 7",
		"# TYPE cocoa_pool_size gauge",
		"cocoa_pool_size 3",
		"# TYPE cocoa_mac_backoff_slots histogram",
		`cocoa_mac_backoff_slots_bucket{le="1"} 1`,
		`cocoa_mac_backoff_slots_bucket{le="4"} 3`,
		`cocoa_mac_backoff_slots_bucket{le="16"} 3`,
		`cocoa_mac_backoff_slots_bucket{le="+Inf"} 4`,
		"cocoa_mac_backoff_slots_sum 44",
		"cocoa_mac_backoff_slots_count 4",
		"# TYPE cocoa_job_wall_ns summary",
		"cocoa_job_wall_ns_count 1",
		"# TYPE cocoa_job_wall_ns_max gauge",
		"# HELP cocoad_jobs Jobs by state.",
		"# TYPE cocoad_jobs gauge",
		`cocoad_jobs{state="running"} 1`,
		`cocoad_jobs{state="done"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q\n--- output ---\n%s", want, out)
		}
	}
	// The output must satisfy its own parser and linter.
	if _, err := LintReader(strings.NewReader(out)); err != nil {
		t.Fatalf("rendered exposition fails lint: %v", err)
	}
}

func TestWriteMetricsEscaping(t *testing.T) {
	var buf bytes.Buffer
	extra := []Sample{
		{Name: "weird", Type: "gauge", Help: "line\none \\ two",
			Labels: []Label{{Key: "path", Value: `a"b\c` + "\n"}}, Value: 1},
	}
	if err := WriteMetrics(&buf, telemetry.Snapshot{}, extra); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP weird line\none \\ two`) {
		t.Fatalf("HELP not escaped: %q", out)
	}
	if !strings.Contains(out, `weird{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label value not escaped: %q", out)
	}
	exp, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	got := exp.Families["weird"].Points[0].Labels["path"]
	if got != `a"b\c`+"\n" {
		t.Fatalf("label round-trip = %q", got)
	}
	if exp.Families["weird"].Help != `line\none \\ two` {
		t.Fatalf("help = %q", exp.Families["weird"].Help)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"cocoa.sim.windows": "cocoa_sim_windows",
		"ok_name:x9":        "ok_name:x9",
		"9leading":          "_9leading",
		"sp ace-dash":       "sp_ace_dash",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{1.5, "1.5"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestRuntimeSamples(t *testing.T) {
	samples := RuntimeSamples()
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if s, ok := byName["go_goroutines"]; !ok || s.Value < 1 {
		t.Fatalf("go_goroutines = %+v", s)
	}
	if s, ok := byName["go_memstats_heap_alloc_bytes"]; !ok || s.Value <= 0 {
		t.Fatalf("go_memstats_heap_alloc_bytes = %+v", s)
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, telemetry.Snapshot{}, samples); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if _, err := LintReader(&buf); err != nil {
		t.Fatalf("runtime samples fail lint: %v", err)
	}
}

func TestHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("cocoa.test.hits").Add(2)
	h := Handler(reg, func() []Sample {
		return []Sample{{Name: "extra_gauge", Type: "gauge", Value: 9}}
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentType)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "cocoa_test_hits_total 2") {
		t.Fatalf("missing counter: %s", body)
	}
	if !strings.Contains(body, "extra_gauge 9") {
		t.Fatalf("missing extra sample: %s", body)
	}
	if !strings.Contains(body, "go_goroutines") {
		t.Fatalf("missing runtime samples: %s", body)
	}
	if _, err := LintReader(strings.NewReader(body)); err != nil {
		t.Fatalf("handler output fails lint: %v", err)
	}
}

func TestParseExpositionErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"malformed type", "# TYPE onlyname\n", "malformed TYPE"},
		{"bad metric name", "# TYPE 9bad counter\n", "invalid metric name"},
		{"unknown type", "# TYPE x widget\n", "unknown metric type"},
		{"duplicate type", "# TYPE x_total counter\n# TYPE x_total counter\n", "duplicate TYPE"},
		{"malformed help", "# HELP\n", "malformed HELP"},
		{"sample before type", "orphan 1\n", "precedes its TYPE"},
		{"no value", "# TYPE x gauge\nx\n", "sample without value"},
		{"bad value", "# TYPE x gauge\nx abc\n", "bad sample value"},
		{"bad timestamp", "# TYPE x gauge\nx 1 soon\n", "bad timestamp"},
		{"bad sample name", "# TYPE x gauge\n{a=\"b\"} 1\n", "invalid sample name"},
		{"unterminated labels", "# TYPE x gauge\nx{a=\"b\"\n", "unterminated label"},
		{"label no equals", "# TYPE x gauge\nx{ab} 1\n", "label without '='"},
		{"bad label name", "# TYPE x gauge\nx{9a=\"b\"} 1\n", "invalid label name"},
		{"duplicate label", "# TYPE x gauge\nx{a=\"1\",a=\"2\"} 1\n", "duplicate label"},
		{"unquoted label", "# TYPE x gauge\nx{a=b} 1\n", "not quoted"},
		{"bad escape", `# TYPE x gauge` + "\n" + `x{a="\t"} 1` + "\n", "invalid escape"},
		{"dangling escape", "# TYPE x gauge\nx{a=\"b\\", "dangling escape"},
		{"junk after label", "# TYPE x gauge\nx{a=\"b\"c=\"d\"} 1\n", "expected ',' or '}'"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseExposition(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseExpositionHelpBeforeType(t *testing.T) {
	in := "# HELP x_total Counts things.\n# TYPE x_total counter\nx_total 1\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if exp.Families["x_total"].Help != "Counts things." {
		t.Fatalf("help = %q", exp.Families["x_total"].Help)
	}
	if len(exp.Order) != 1 || exp.Order[0] != "x_total" {
		t.Fatalf("order = %v", exp.Order)
	}
}

func TestLintViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"duplicate series", "# TYPE x gauge\nx 1\nx 2\n", "duplicate series"},
		{"duplicate labeled series", "# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n", "duplicate series"},
		{"counter without _total", "# TYPE hits counter\nhits 1\n", "does not end in _total"},
		{"negative counter", "# TYPE x_total counter\nx_total -1\n", "invalid value"},
		{"NaN counter", "# TYPE x_total counter\nx_total NaN\n", "invalid value"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n", "without le"},
		{"buckets out of order",
			"# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"increasing le order"},
		{"decreasing counts",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"counts decrease"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf"},
		{"+Inf != count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
			"!= _count"},
		{"foreign histogram sample", "# TYPE h histogram\nh 1\nh_sum 1\nh_count 1\n", "not valid for histogram"},
		{"summary without quantile", "# TYPE s summary\ns 1\ns_sum 1\ns_count 1\n", "lacks quantile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := ParseExposition(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ParseExposition: %v", err)
			}
			errs := Lint(exp)
			if len(errs) == 0 {
				t.Fatalf("Lint passed %q", tc.in)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no lint error mentions %q in %v", tc.want, errs)
			}
		})
	}
}

func TestLintCleanSummaryWithQuantile(t *testing.T) {
	in := "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 3\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if errs := Lint(exp); len(errs) != 0 {
		t.Fatalf("Lint = %v, want clean", errs)
	}
}

func TestLintLabeledHistogramGroups(t *testing.T) {
	// Two label groups, each individually well-formed.
	in := "# TYPE h histogram\n" +
		"h_bucket{job=\"a\",le=\"1\"} 1\nh_bucket{job=\"a\",le=\"+Inf\"} 2\nh_count{job=\"a\"} 2\nh_sum{job=\"a\"} 3\n" +
		"h_bucket{job=\"b\",le=\"1\"} 0\nh_bucket{job=\"b\",le=\"+Inf\"} 1\nh_count{job=\"b\"} 1\nh_sum{job=\"b\"} 9\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if errs := Lint(exp); len(errs) != 0 {
		t.Fatalf("Lint = %v, want clean", errs)
	}
}
