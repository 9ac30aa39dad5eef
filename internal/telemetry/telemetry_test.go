package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	// Re-getting a name returns the same instrument.
	if r.Counter("c") != c || r.Gauge("g") != g {
		t.Error("re-registration returned a different instrument")
	}
}

// observe publishes the values into r's named histogram the way a run
// does: through a tally over bounds.
func observe(r *Registry, name string, bounds []float64, vs ...int) *Histogram {
	tl := NewTally(bounds)
	for _, v := range vs {
		tl.Observe(v)
	}
	r.AddTally(name, &tl)
	return r.Histogram(name, bounds)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	observe(r, "depth", []float64{1, 4, 16}, 0, 1, 2, 4, 5, 100)
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	if hv.Count != 6 {
		t.Errorf("count = %d, want 6", hv.Count)
	}
	if hv.Sum != 112 {
		t.Errorf("sum = %v, want 112", hv.Sum)
	}
	wantCounts := []int64{2, 2, 1, 1} // <=1, <=4, <=16, +Inf
	for i, want := range wantCounts {
		if hv.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, hv.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(hv.Buckets[3].Le, 1) {
		t.Errorf("last bucket le = %v, want +Inf", hv.Buckets[3].Le)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds accepted")
		}
	}()
	NewRegistry().Histogram("bad", []float64{2, 1})
}

func TestSpanWallAndObserve(t *testing.T) {
	r := NewRegistry()
	s := r.Span("win")
	s.Observe(3 * time.Second)
	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if got := s.TotalNs(); got != 3e9 {
		t.Errorf("total = %d ns, want 3e9", got)
	}
	w := r.Span("wall")
	wt := w.Start()
	wt.End()
	if w.Count() != 1 || w.TotalNs() < 0 {
		t.Errorf("wall span count=%d total=%d", w.Count(), w.TotalNs())
	}
	// Negative durations clamp to zero rather than corrupting totals.
	s.Observe(-5 * time.Second)
	if got := s.TotalNs(); got != 3e9 {
		t.Errorf("total after negative duration = %d, want unchanged 3e9", got)
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z", "a", "m"} {
		r.Counter(name).Inc()
		r.Gauge("g." + name).Set(1)
		observe(r, "h."+name, []float64{1}, 0)
		r.Span("s." + name).Observe(time.Second)
	}
	snap := r.Snapshot()
	names := func(n int, get func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = get(i)
		}
		return out
	}
	for _, set := range [][]string{
		names(len(snap.Counters), func(i int) string { return snap.Counters[i].Name }),
		names(len(snap.Gauges), func(i int) string { return snap.Gauges[i].Name }),
		names(len(snap.Histograms), func(i int) string { return snap.Histograms[i].Name }),
		names(len(snap.Spans), func(i int) string { return snap.Spans[i].Name }),
	} {
		if !sort.StringsAreSorted(set) {
			t.Errorf("snapshot names not sorted: %v", set)
		}
		for i := 1; i < len(set); i++ {
			if set[i] == set[i-1] {
				t.Errorf("duplicate name %q", set[i])
			}
		}
	}
	// Serializing the same state twice must yield identical bytes.
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(r.Snapshot())
	if string(b1) != string(b2) {
		t.Error("snapshot serialization not deterministic")
	}
	if !strings.Contains(string(b1), `"le":"+Inf"`) {
		t.Errorf("overflow bucket not serialized as +Inf string: %s", b1)
	}
	// Round trip: the "+Inf" string must parse back to the infinity bound.
	var back Snapshot
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	last := back.Histograms[0].Buckets
	if !math.IsInf(last[len(last)-1].Le, 1) {
		t.Errorf("round-tripped overflow bound = %v, want +Inf", last[len(last)-1].Le)
	}
	if err := json.Unmarshal([]byte(`{"le":"-garbage","count":1}`), &BucketValue{}); err == nil {
		t.Error("bad string bound accepted")
	}
}

func TestResetZeroesEverything(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(9)
	g := r.Gauge("g")
	g.Set(4)
	h := observe(r, "h", []float64{1}, 1)
	s := r.Span("s")
	s.Observe(2 * time.Second)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || s.Count() != 0 || s.TotalNs() != 0 {
		t.Error("Reset left residue")
	}
	// The instruments stay live after Reset.
	c.Inc()
	if c.Value() != 1 {
		t.Error("counter dead after Reset")
	}
}

func TestDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	s := r.Span("s")
	c.Add(3)
	g.Set(5)
	observe(r, "h", []float64{10}, 4)
	s.Observe(time.Second)
	before := r.Snapshot()
	c.Add(2)
	g.Set(9)
	observe(r, "h", []float64{10}, 20)
	s.Observe(2 * time.Second)
	d := Diff(before, r.Snapshot())
	if d.Counters[0].Value != 2 {
		t.Errorf("counter delta = %d, want 2", d.Counters[0].Value)
	}
	if d.Gauges[0].Value != 9 {
		t.Errorf("gauge in diff = %d, want the level 9", d.Gauges[0].Value)
	}
	if d.Histograms[0].Count != 1 || d.Histograms[0].Buckets[1].Count != 1 {
		t.Errorf("histogram delta = %+v", d.Histograms[0])
	}
	if d.Spans[0].Count != 1 || d.Spans[0].TotalNs != 2e9 {
		t.Errorf("span delta = %+v", d.Spans[0])
	}
}

// Recording and publishing from many goroutines must lose nothing (and
// stay race-free under -race, which make check runs).
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{50})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				observe(r, "h", []float64{50}, i%100)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); got != workers*per*49.5 {
		t.Errorf("histogram sum = %v, want %v", got, workers*per*49.5)
	}
}

// The hot-path contract: recording allocates nothing.
func TestRecordingDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	s := r.Span("s")
	tl := NewTally([]float64{1, 2, 4})
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Start().End() }); n != 0 {
		t.Errorf("Span wall timing allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { tl.Observe(3) }); n != 0 {
		t.Errorf("Tally.Observe allocates %v/op", n)
	}
}

// Each publication of a tally or a count adds into the named instrument;
// a histogram registered under other bounds keeps them.
func TestRegistryAddTally(t *testing.T) {
	r := NewRegistry()
	tl := NewTally([]float64{1, 4, 16})
	for _, v := range []int{0, 1, 2, 4, 5, 100} {
		tl.Observe(v)
	}
	if tl.Count() != 6 {
		t.Errorf("tally count = %d, want 6", tl.Count())
	}
	r.AddTally("tally", &tl)
	r.AddTally("tally", &tl)
	if got := r.Histogram("tally", nil); got.Count() != 12 || got.Sum() != 224 {
		t.Errorf("after two publications count=%d sum=%v, want 12 and 224", got.Count(), got.Sum())
	}
	// A histogram already registered under other bounds keeps them.
	other := r.Histogram("other", []float64{1})
	r.AddTally("other", &tl)
	if other.Count() != 0 {
		t.Errorf("mismatched tally merged: count %d", other.Count())
	}
	r.Add("c", 3)
	r.Add("c", 4)
	if got := r.Counter("c").Value(); got != 7 {
		t.Errorf("counter after Add 3 and 4 = %d, want 7", got)
	}
}

func TestTallyRejectsBadBounds(t *testing.T) {
	long := make([]float64, maxTallyBuckets)
	for i := range long {
		long[i] = float64(i)
	}
	for _, bounds := range [][]float64{{2, 1}, {1, 1}, long} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewTally(bounds)
		}()
	}
}
