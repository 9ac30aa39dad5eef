package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"cocoa/internal/telemetry"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may report, in tenths of
// a percent, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// percentileRank is the 1-based nearest-rank position of the p10/10-th
// percentile among n samples.
func percentileRank(p10, n int) int {
	r := (p10*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile picks the highest ladder percentile that leaves at least
// minBeyond of n samples above it; ok is false when even the median does not.
func tailPercentile(n int) (p10 int, ok bool) {
	for _, p := range tailLadder {
		if n-percentileRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p10/10-th percentile of xs.
func percentile(xs []float64, p10 int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileRank(p10, len(s))-1]
}

// The host lends the benchmark a few cores of a shared machine, and its
// speed drifts by a quarter or more over minutes, which no run length
// averages out. Every pass therefore interleaves short bursts of a fixed
// reference kernel with its operations, one burst per refPeriod of
// operation wall time, and reports each timing twice: as measured, and
// scaled by refNominalMs over the burst time, which is what the operation
// would take on a host that runs one burst in refNominalMs, using the
// bursts within refWindow of the operation (for a rate, of each stretch of
// operation time). The kernel is the benchmark's own code, so no change to
// the program moves it, and alloc_mb_per_op leaves out what the bursts
// allocate.
//
// On a 2-vCPU Xeon guest the drift followed memory latency and arithmetic
// speed alike (each correlated 0.86 with swarm-1000's run time over
// 40-run windows), so the kernel does half of each. Over 150 s in which
// swarm-1000's median run time drifted between 82 and 121 ms, dividing
// by the kernel's time cut its window-to-window spread (quartile distance
// over median) from 0.19 to 0.05; over five 30 s paper-sweep runs it cut
// that of runs/s from 0.13 to 0.03. It does not follow every change of
// the host: a later five read 15% lower.
const (
	refNominalMs  = 12.0
	refPeriod     = 250 * time.Millisecond
	refWindow     = 2 * time.Second
	refChaseIters = 1 << 16
	refIdxBits    = 20 // 4 MiB of chase indices: past L2, as the workloads' heaps are
	refGridBits   = 15 // 256 KiB of float64 cells: within L2, as a belief grid row block is
	refGridPasses = 10
)

// refTables are the reference kernel's inputs, built once at start-up
// from a fixed generator, and one output grid per P.
var refTables = func() (t struct {
	idx  []uint32
	grid []float64
	post [][]float64
}) {
	t.idx = make([]uint32, 1<<refIdxBits)
	t.grid = make([]float64, 1<<refGridBits)
	t.post = make([][]float64, runtime.GOMAXPROCS(0))
	for g := range t.post {
		t.post[g] = make([]float64, 1<<refGridBits)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t.idx {
		x = x*6364136223846793005 + 1442695040888963407
		t.idx[i] = uint32(x >> 32)
	}
	for i := range t.grid {
		x = x*6364136223846793005 + 1442695040888963407
		t.grid[i] = 1 + float64(x>>11)/(1<<53)
	}
	return t
}()

// refKernel is one burst: a dependent chase through the index table
// (memory latency, as in the event heap and neighbour lists), then passes
// of a likelihood update over a grid (arithmetic and streaming, as in the
// belief update). post is the goroutine's own output grid.
func refKernel(g int, post []float64) float64 {
	const idxMask = 1<<refIdxBits - 1
	i, acc := uint32(7919*(g+1)), 0.0
	for k := uint32(0); k < refChaseIters; k++ {
		i = refTables.idx[(i+k)&idxMask]
		acc += float64(i & 7)
	}
	for p := 0; p < refGridPasses; p++ {
		w, sum := 1+float64(p)/refGridPasses, 0.0
		for c, v := range refTables.grid {
			q := v * math.Exp(-w*v)
			post[c] = q
			sum += q
		}
		acc += math.Log(sum)
	}
	return acc
}

// hostRef records the reference bursts of one pass. The traced pass turns
// it off, so the kernel does not show in the CPU profile. width is how
// many goroutines a burst runs, the number of cores the workload's
// operation keeps busy (0 means 1).
type hostRef struct {
	off   bool
	width int
	owed  time.Duration
	ms    []float64
	at    []time.Time     // when each burst ended
	busy  []time.Time     // start of each stretch of operation time given to after
	busyD []time.Duration // and its length
	sink  float64
	// extra, when set, runs after the kernel in each goroutine g of a
	// burst and is timed with it; its first error is kept in err.
	extra  func(g int) error
	err    error
	allocB float64 // heap bytes the bursts allocated
}

// after accounts d of operation wall time, which just ended, and runs the
// bursts it owes.
func (h *hostRef) after(d time.Duration) {
	if h.off {
		return
	}
	h.busy = append(h.busy, time.Now().Add(-d))
	h.busyD = append(h.busyD, d)
	for h.owed += d; h.owed >= refPeriod; h.owed -= refPeriod {
		h.burst()
	}
}

// burst runs the kernel once on each of width goroutines, each timing
// itself, and records their harmonic mean: the time per kernel at the
// goroutines' combined speed, which is what a parallel operation that
// shares its work across the cores sees. Matching the operation's width
// matters: the host's two vCPUs often run at different speeds, so a
// single-threaded operation follows one vCPU and a parallel one both.
func (h *hostRef) burst() {
	a0 := heapAllocs()
	n := min(max(h.width, 1), len(refTables.post))
	ms := make([]float64, n)
	sinks := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sinks[g] = refKernel(g, refTables.post[g])
			if h.extra != nil {
				errs[g] = h.extra(g)
			}
			ms[g] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}()
	}
	wg.Wait()
	var inv float64
	for g := range ms {
		inv += 1 / ms[g]
		h.sink += sinks[g]
		if h.err == nil {
			h.err = errs[g]
		}
	}
	h.ms = append(h.ms, float64(n)/inv)
	h.at = append(h.at, time.Now())
	h.allocB += heapAllocs() - a0
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// localScale is scale for one operation that ran from start for ms
// milliseconds, from the bursts within refWindow of it; the host's speed
// changes within a pass, and a paper-sweep operation lasts seconds. With
// no burst that near it is the pass's scale.
func (h *hostRef) localScale(start time.Time, ms float64) float64 {
	lo, hi := start.Add(-refWindow), start.Add(time.Duration(ms*1e6)+refWindow)
	var sum float64
	n := 0
	for i, t := range h.at {
		if t.After(lo) && t.Before(hi) {
			sum += h.ms[i]
			n++
		}
	}
	if n == 0 {
		return h.scale()
	}
	return refNominalMs * float64(n) / sum
}

// rateScale is scale for a rate over the pass's operation time: the
// local scale of each interval after was given, weighted by its length.
func (h *hostRef) rateScale() float64 {
	var sum, total float64
	for i, start := range h.busy {
		ms := float64(h.busyD[i].Nanoseconds()) / 1e6
		sum += ms * h.localScale(start, ms)
		total += ms
	}
	if total == 0 {
		return 1
	}
	return sum / total
}

// burstMs is the pass's typical burst time: the mean of the middle 80% of
// bursts. Not the median: when the vCPUs run at different speeds the
// bursts fall into modes, whose proportion the mean follows smoothly where
// the median jumps.
func (h *hostRef) burstMs() float64 {
	s := append([]float64(nil), h.ms...)
	sort.Float64s(s)
	cut := len(s) / 10
	return mean(s[cut : len(s)-cut])
}

// scale converts the pass's wall times to the reference host: multiply a
// duration by it, divide a rate by it. Without bursts it is 1.
func (h *hostRef) scale() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return refNominalMs / h.burstMs()
}

// span is one benchmark-side span around a call into a layer. Times are
// nanoseconds since the pass started; spans of one operation share a
// parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the pass ends. A nil *spanLog
// records nothing, which is how untraced passes run.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// reserve allocates a span ID, so children can name a parent that is
// recorded after them.
func (l *spanLog) reserve() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a finished span under a reserved id (0 allocates one).
func (l *spanLog) add(id, parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.reserve()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.t0).Nanoseconds(), EndNs: end.Sub(l.t0).Nanoseconds()})
	return id
}

// durations returns the wall seconds of every span with the given name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// writeFile stores the spans as JSON.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runtimeMetricNames are read around every timed region.
var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntimeMetrics() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// region measures one timed region. Untraced, it reads only
// runtime/metrics; traced, it also diffs the telemetry registry and takes
// a CPU profile of the process.
type region struct {
	traced  bool
	rt0     map[string]float64
	rtDelta map[string]float64
	tel0    telemetry.Snapshot
	tel     telemetry.Snapshot // after minus before
	prof    bytes.Buffer
	cpu     map[string]int64 // CPU nanoseconds per layer (traced)
}

func (r *region) begin() error {
	if r.traced {
		r.tel0 = telemetry.Default.Snapshot()
		if err := pprof.StartCPUProfile(&r.prof); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	r.rt0 = readRuntimeMetrics()
	return nil
}

func (r *region) end() error {
	rt1 := readRuntimeMetrics()
	r.rtDelta = make(map[string]float64, len(rt1))
	for k, v := range rt1 {
		r.rtDelta[k] = v - r.rt0[k]
	}
	if !r.traced {
		return nil
	}
	pprof.StopCPUProfile()
	r.tel = telemetry.Diff(r.tel0, telemetry.Default.Snapshot())
	p, err := decodeProfile(r.prof.Bytes())
	if err != nil {
		return err
	}
	r.cpu = layerCPU(p)
	return nil
}

// counter returns a telemetry counter's change over the region.
func (r *region) counter(name string) float64 {
	for _, c := range r.tel.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

// histMean returns a telemetry histogram's mean over the region.
func (r *region) histMean(name string) float64 {
	for _, h := range r.tel.Histograms {
		if h.Name == name && h.Count > 0 {
			return h.Sum / float64(h.Count)
		}
	}
	return 0
}

// spanStat returns a telemetry span's count and total wall seconds over
// the region.
func (r *region) spanStat(name string) (count, totalS float64) {
	for _, s := range r.tel.Spans {
		if s.Name == name {
			return float64(s.Count), float64(s.TotalNs) / 1e9
		}
	}
	return 0, 0
}
