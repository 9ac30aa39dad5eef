package telemetry

import (
	"testing"
	"time"
)

// The benchmarks below quantify the per-record cost of the registered
// instruments and of a run-owned Tally. DESIGN.md §10 quotes these
// numbers; re-measure with
//
//	go test -bench 'Benchmark(Counter|Span|Tally)' -benchmem ./internal/telemetry/
//
// Every one of them must report 0 B/op and 0 allocs/op.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTallyObserve(b *testing.B) {
	tl := NewTally([]float64{1, 8, 64, 512})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl.Observe(i & 1023)
	}
}

func BenchmarkSpanWall(b *testing.B) {
	s := NewRegistry().Span("s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Start().End()
	}
}

func BenchmarkSpanObserve(b *testing.B) {
	s := NewRegistry().Span("s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(time.Microsecond)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter(string(rune('a' + i%26)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
