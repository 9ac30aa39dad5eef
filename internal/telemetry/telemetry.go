// Package telemetry is the runtime observability layer of the CoCoA stack:
// a registry of named counters, gauges, fixed-bucket histograms and spans,
// into which simulation runs publish their own counts when they end.
//
// Two kinds of reporter feed a registry:
//
//   - A simulation run counts each event once, in plain fields of the
//     objects that own the run's state (simulator, MAC medium, NICs, fault
//     links, belief grids, team), with a Tally per histogram. Concurrent
//     runs share nothing while they execute. When a run ends, its layers
//     add those fields into Default by name (Registry.Add, AddTally) if
//     Default is enabled — the flag means "runs publish here" and is read
//     once per run — so run-layer series move when runs end.
//   - The experiment runner and the cocoad service register eleven
//     instruments on Default that fire per job, not per event: the spans
//     runner.job_wall (its count is the jobs run) and runner.queue_wait,
//     the gauge runner.inflight, the counter runner.job_errors, and the
//     serve.jobs_{accepted, rejected_full, rejected_draining,
//     rejected_invalid, completed, failed, canceled} counters. They record
//     unconditionally with lock-free atomic adds and 0 allocs/op, which
//     this package's benchmarks enforce. A value another layer already
//     holds (pool occupancy, say) is read from it, not mirrored here.
//
// Telemetry only records; nothing in the stack reads a telemetry value to
// make a decision, so results are byte-identical with publication on or
// off (internal/cocoa tests pin this). Snapshot returns a stable,
// name-sorted view for JSON, expvar, Prometheus and delta tables.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named instruments. Registration (Counter, Gauge, ...)
// locks; recording never does.
type Registry struct {
	enabled atomic.Bool

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      map[string]*Span
}

// Default is the process-wide registry: the runner and serve instruments
// live here, and simulation runs publish here when it is enabled
// (cmd/cocoaexp enables it for -telemetry or -debug-addr, cocoad always).
var Default = NewRegistry()

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		spans:      map[string]*Span{},
	}
}

// SetEnabled turns run publication on or off: a simulation run checks
// Enabled once, when it ends. Registered instruments record regardless.
// Disabling does not clear recorded values.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether runs publish into the registry.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// lookup returns m[name], registering mk() under it on first use.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the named monotonic counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given ascending upper bounds on first use (an implicit +Inf bucket is
// appended). Later calls ignore bounds and return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return lookup(r, r.histograms, name, func() *Histogram {
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, bounds))
			}
		}
		return &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
	})
}

// Span returns the named span, creating it on first use.
func (r *Registry) Span(name string) *Span {
	return lookup(r, r.spans, name, func() *Span { return &Span{} })
}

// Counter is a monotonic event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; monotonicity is the caller's contract).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution, fed by finished runs' tallies
// (Registry.AddTally): bounds[i] is the inclusive upper edge of bucket i,
// and one final bucket catches everything above the last bound.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Span accumulates wall-clock durations of a named activity: count,
// total, and max.
type Span struct {
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

// Timing is an in-flight span measurement.
type Timing struct {
	s    *Span
	wall time.Time
}

// Start begins a wall-clock timing.
func (s *Span) Start() Timing { return Timing{s: s, wall: time.Now()} }

// End completes a wall-clock timing.
func (t Timing) End() { t.s.record(time.Since(t.wall).Nanoseconds()) }

// Observe records an externally measured wall duration.
func (s *Span) Observe(d time.Duration) { s.record(d.Nanoseconds()) }

func (s *Span) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.totalNs.Add(ns)
	for {
		cur := s.maxNs.Load()
		if ns <= cur || s.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of completed timings.
func (s *Span) Count() int64 { return s.count.Load() }

// TotalNs returns the accumulated duration in nanoseconds.
func (s *Span) TotalNs() int64 { return s.totalNs.Load() }

// atomicFloat is a CAS-accumulated float64 (allocation-free).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Snapshot is a stable-ordered view of a registry: every category sorted
// by name, so serializing the same state twice yields identical bytes.
type Snapshot struct {
	Enabled    bool             `json:"enabled"`
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	Spans      []SpanValue      `json:"spans"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketValue is one histogram bucket: the count of observations at or
// below Le that fell above the previous bound. The last bucket's Le is
// +Inf, serialized as the string "+Inf".
type BucketValue struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders +Inf as a string (JSON has no Inf literal).
func (b BucketValue) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.Le, 1) {
		return json.Marshal(struct {
			Le    string `json:"le"`
			Count int64  `json:"count"`
		}{"+Inf", b.Count})
	}
	type plain BucketValue
	return json.Marshal(plain(b))
}

// UnmarshalJSON accepts both the numeric form and the "+Inf" string, so
// serialized snapshots round-trip.
func (b *BucketValue) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.Le, &s); err == nil {
		if s != "+Inf" {
			return fmt.Errorf("telemetry: bad bucket bound %q", s)
		}
		b.Le = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.Le, &b.Le)
}

// HistogramValue is one histogram's snapshot.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketValue `json:"buckets"`
}

// SpanValue is one span's snapshot. Totals are wall nanoseconds.
type SpanValue struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Snapshot captures every instrument's current value, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Enabled:    r.enabled.Load(),
		Counters:   make([]CounterValue, 0, len(r.counters)),
		Gauges:     make([]GaugeValue, 0, len(r.gauges)),
		Histograms: make([]HistogramValue, 0, len(r.histograms)),
		Spans:      make([]SpanValue, 0, len(r.spans)),
	}
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: c.v.Load()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: g.v.Load()})
	}
	for name, h := range r.histograms {
		hv := HistogramValue{
			Name:    name,
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Buckets: make([]BucketValue, len(h.buckets)),
		}
		for i := range h.buckets {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hv.Buckets[i] = BucketValue{Le: le, Count: h.buckets[i].Load()}
		}
		snap.Histograms = append(snap.Histograms, hv)
	}
	for name, s := range r.spans {
		snap.Spans = append(snap.Spans, SpanValue{
			Name:    name,
			Count:   s.count.Load(),
			TotalNs: s.totalNs.Load(),
			MaxNs:   s.maxNs.Load(),
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].Name < snap.Spans[j].Name })
	return snap
}

// Diff returns after minus before: counter values, histogram counts and
// span accumulators subtract; gauges keep their after value (a gauge is a
// level, not a flow). Instruments present only in after carry over whole.
// Both snapshots must come from the same registry for names to align.
func Diff(before, after Snapshot) Snapshot {
	out := Snapshot{Enabled: after.Enabled}
	prevC := map[string]int64{}
	for _, c := range before.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range after.Counters {
		out.Counters = append(out.Counters, CounterValue{Name: c.Name, Value: c.Value - prevC[c.Name]})
	}
	out.Gauges = append(out.Gauges, after.Gauges...)
	prevH := map[string]HistogramValue{}
	for _, h := range before.Histograms {
		prevH[h.Name] = h
	}
	for _, h := range after.Histograms {
		d := HistogramValue{
			Name:    h.Name,
			Count:   h.Count,
			Sum:     h.Sum,
			Buckets: append([]BucketValue(nil), h.Buckets...),
		}
		if p, ok := prevH[h.Name]; ok && len(p.Buckets) == len(h.Buckets) {
			d.Count -= p.Count
			d.Sum -= p.Sum
			for i := range d.Buckets {
				d.Buckets[i].Count -= p.Buckets[i].Count
			}
		}
		out.Histograms = append(out.Histograms, d)
	}
	prevS := map[string]SpanValue{}
	for _, s := range before.Spans {
		prevS[s.Name] = s
	}
	for _, s := range after.Spans {
		p := prevS[s.Name]
		out.Spans = append(out.Spans, SpanValue{
			Name:    s.Name,
			Count:   s.Count - p.Count,
			TotalNs: s.TotalNs - p.TotalNs,
			MaxNs:   s.MaxNs, // max does not subtract; keep the running max
		})
	}
	return out
}
