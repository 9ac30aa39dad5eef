package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"cocoa/internal/telemetry"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one exposition label pair.
type Label struct {
	Key   string
	Value string
}

// Sample is one externally contributed series: collectors (the serve
// layer's per-job-state gauges, the runtime collector) return Samples and
// WriteMetrics renders them alongside the telemetry registry. Samples
// sharing a Name form one metric family and must agree on Type; the
// writer groups them by first appearance.
type Sample struct {
	Name   string
	Type   string // "counter", "gauge", or "untyped"
	Help   string
	Labels []Label
	Value  float64
}

// sanitizeMetricName maps a telemetry instrument name onto the Prometheus
// metric-name alphabet: dots (the registry's namespacing convention) and
// any other invalid byte become underscores.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line's free text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value for the `name="value"` position.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value: +Inf/-Inf/NaN spelled the way the
// exposition format expects, finite values in shortest form.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a histogram bucket bound for the le label.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promWriter accumulates exposition lines, tracking the first error.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// labels renders a {k="v",...} block, or "" for none.
func labels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteMetrics renders snap plus the extra samples as Prometheus text
// exposition. The mapping from telemetry instruments:
//
//	Counter   c        -> counter  <c>_total
//	Gauge     g        -> gauge    <g>
//	Histogram h        -> histogram <h> (_bucket cumulative with +Inf,
//	                      _sum, _count)
//	Span      s        -> summary  <s>_ns (_sum, _count) and
//	                      gauge    <s>_ns_max
//
// Telemetry buckets store per-bucket counts; the writer accumulates them
// into the cumulative form le-buckets require. Extra samples are grouped
// into families by first appearance, so a collector may interleave names.
func WriteMetrics(w io.Writer, snap telemetry.Snapshot, extra []Sample) error {
	p := &promWriter{w: w}
	for _, c := range snap.Counters {
		name := sanitizeMetricName(c.Name) + "_total"
		p.printf("# TYPE %s counter\n", name)
		p.printf("%s %d\n", name, c.Value)
	}
	for _, g := range snap.Gauges {
		name := sanitizeMetricName(g.Name)
		p.printf("# TYPE %s gauge\n", name)
		p.printf("%s %d\n", name, g.Value)
	}
	for _, h := range snap.Histograms {
		name := sanitizeMetricName(h.Name)
		p.printf("# TYPE %s histogram\n", name)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			p.printf("%s_bucket{le=\"%s\"} %d\n", name, formatLe(b.Le), cum)
		}
		p.printf("%s_sum %s\n", name, formatValue(h.Sum))
		p.printf("%s_count %d\n", name, h.Count)
	}
	for _, s := range snap.Spans {
		name := sanitizeMetricName(s.Name) + "_ns"
		p.printf("# TYPE %s summary\n", name)
		p.printf("%s_sum %d\n", name, s.TotalNs)
		p.printf("%s_count %d\n", name, s.Count)
		p.printf("# TYPE %s_max gauge\n", name)
		p.printf("%s_max %d\n", name, s.MaxNs)
	}
	// Group the extra samples into families by first appearance: one TYPE
	// line per family, all its samples contiguous.
	var order []string
	families := map[string][]Sample{}
	for _, s := range extra {
		if _, ok := families[s.Name]; !ok {
			order = append(order, s.Name)
		}
		families[s.Name] = append(families[s.Name], s)
	}
	for _, name := range order {
		fam := families[name]
		if fam[0].Help != "" {
			p.printf("# HELP %s %s\n", name, escapeHelp(fam[0].Help))
		}
		typ := fam[0].Type
		if typ == "" {
			typ = "untyped"
		}
		p.printf("# TYPE %s %s\n", name, typ)
		for _, s := range fam {
			p.printf("%s%s %s\n", name, labels(s.Labels), formatValue(s.Value))
		}
	}
	return p.err
}

// RuntimeSamples collects the process/runtime metrics the exposition
// serves alongside the simulation's instruments: goroutines, heap, and GC
// pause totals.
func RuntimeSamples() []Sample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return []Sample{
		{Name: "go_goroutines", Type: "gauge",
			Help:  "Number of goroutines that currently exist.",
			Value: float64(runtime.NumGoroutine())},
		{Name: "go_memstats_heap_alloc_bytes", Type: "gauge",
			Help:  "Heap bytes allocated and still in use.",
			Value: float64(m.HeapAlloc)},
		{Name: "go_memstats_heap_objects", Type: "gauge",
			Help:  "Number of allocated heap objects.",
			Value: float64(m.HeapObjects)},
		{Name: "go_memstats_alloc_bytes_total", Type: "counter",
			Help:  "Cumulative bytes allocated on the heap.",
			Value: float64(m.TotalAlloc)},
		{Name: "go_gc_cycles_total", Type: "counter",
			Help:  "Completed GC cycles.",
			Value: float64(m.NumGC)},
		{Name: "go_gc_pause_seconds_total", Type: "counter",
			Help:  "Cumulative stop-the-world GC pause time.",
			Value: float64(m.PauseTotalNs) / 1e9},
	}
}

// Handler serves GET /metrics from reg plus RuntimeSamples plus the
// optional extra collector (invoked per scrape — the serve layer
// contributes per-job-state gauges and ETAs through it).
func Handler(reg *telemetry.Registry, extra func() []Sample) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		samples := RuntimeSamples()
		if extra != nil {
			samples = append(samples, extra()...)
		}
		var buf bytes.Buffer
		if err := WriteMetrics(&buf, reg.Snapshot(), samples); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write(buf.Bytes())
	})
}
