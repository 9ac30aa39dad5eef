package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if got := s.Now(); got != 0 {
		t.Fatalf("Now = %v, want 0", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	s := New()
	var fired []Time
	s.Schedule(2.5, func() { fired = append(fired, s.Now()) })
	s.Schedule(1.0, func() { fired = append(fired, s.Now()) })
	s.Run()
	if len(fired) != 2 || fired[0] != 1.0 || fired[1] != 2.5 {
		t.Fatalf("fired = %v, want [1 2.5]", fired)
	}
	if s.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", s.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestAtBeforeNowPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for At in the past")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	s.Cancel(e) // double cancel is a no-op
	s.Cancel(nil)
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() {})
	s.Run()
	s.Cancel(e) // must not panic or corrupt the heap
	s.Schedule(1, func() {})
	s.Run()
	if s.Now() != 2 {
		t.Fatalf("Now = %v, want 2", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 0; i < 5; i++ {
		s.Schedule(float64(i+1), func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	s.Run() // resumes
	if count != 5 {
		t.Fatalf("count after resume = %d, want 5", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4, 5} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v, want 5 events", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want clock advanced to horizon 10", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(1, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestEachTick(t *testing.T) {
	s := New()
	var ticks []Time
	stop := s.EachTick(0.5, 1.0, func(tk Time) { ticks = append(ticks, tk) })
	s.RunUntil(5)
	stop()
	s.RunUntil(10)
	want := []Time{0.5, 1.5, 2.5, 3.5, 4.5}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEachTickBadInterval(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive interval")
		}
	}()
	s.EachTick(0, 0, func(Time) {})
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(float64(i), func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// Property: regardless of the insertion order of random delays, events fire
// in non-decreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []Time
		for _, r := range raw {
			d := Time(r) / 100
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArenaChunkBoundaries schedules far more events than one arena chunk
// holds, interleaving cancels and nested scheduling, and checks every
// surviving event fires exactly once in order.
func TestArenaChunkBoundaries(t *testing.T) {
	s := New()
	const n = 10 * arenaChunk
	var fired []int
	events := make([]*Event, n)
	for i := 0; i < n; i++ {
		i := i
		events[i] = s.Schedule(float64(i), func() { fired = append(fired, i) })
	}
	for i := 0; i < n; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	want := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			continue
		}
		if want >= len(fired) || fired[want] != i {
			t.Fatalf("fired[%d] wrong: got %v", want, fired[want])
		}
		want++
	}
	if want != len(fired) {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for _, e := range events {
		s.Cancel(e) // cancel after fire must stay a no-op across chunks
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("channel")
	b := NewRNG(42).Stream("channel")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverge")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Stream("mobility")
	b := root.Stream("odometry")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams look correlated: %d identical draws", same)
	}
}

func TestRNGStreamN(t *testing.T) {
	root := NewRNG(7)
	a := root.StreamN("node", 1)
	b := root.StreamN("node", 2)
	a2 := NewRNG(7).StreamN("node", 1)
	if a.Float64() == b.Float64() {
		t.Error("different indices produced identical first draw")
	}
	a.r = nil // ensure no reuse below
	if got, want := a2.Float64(), NewRNG(7).StreamN("node", 1).Float64(); got != want {
		t.Errorf("StreamN not deterministic: %v vs %v", got, want)
	}
}

// Normal(mean, stddev) is mean + stddev*StdNormal() on a twin stream, bit
// for bit, one draw each.
func TestStdNormalScalesToNormal(t *testing.T) {
	a, b := NewRNG(3).Stream("n"), NewRNG(3).Stream("n")
	for i := 0; i < 1000; i++ {
		mean, sd := float64(i%7)-90.5, 0.25+float64(i%5)
		if got, want := mean+sd*b.StdNormal(), a.Normal(mean, sd); got != want {
			t.Fatalf("draw %d: %v, Normal gives %v", i, got, want)
		}
	}
}

func TestRNGDistributionsSanity(t *testing.T) {
	g := NewRNG(1)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("Normal mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}

	var uSum float64
	for i := 0; i < n; i++ {
		u := g.Uniform(2, 4)
		if u < 2 || u >= 4 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		uSum += u
	}
	if got := uSum / n; math.Abs(got-3) > 0.05 {
		t.Errorf("Uniform mean = %v, want ~3", got)
	}

	var rSum float64
	for i := 0; i < n; i++ {
		r := g.Rayleigh(3)
		if r < 0 {
			t.Fatalf("Rayleigh negative: %v", r)
		}
		rSum += r
	}
	wantMean := 3 * math.Sqrt(math.Pi/2)
	if got := rSum / n; math.Abs(got-wantMean) > 0.15 {
		t.Errorf("Rayleigh mean = %v, want ~%v", got, wantMean)
	}

	var eSum float64
	for i := 0; i < n; i++ {
		eSum += g.Exp(4)
	}
	if got := eSum / n; math.Abs(got-4) > 0.25 {
		t.Errorf("Exp mean = %v, want ~4", got)
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.03 {
		t.Errorf("Bool(0.25) hit rate = %v", frac)
	}
}

func TestRNGPerm(t *testing.T) {
	g := NewRNG(9)
	p := g.Perm(10)
	seen := make(map[int]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}
