package obs

import (
	"testing"
	"time"
)

// The disabled path of every record site must stay free: a nil Progress
// or Trace pointer degenerates each call to a nil check, with zero
// allocations. These benchmarks time that contract; the alloc counts are
// asserted by the 0-allocs test below.

func BenchmarkProgressSetTicksDisabled(b *testing.B) {
	var p *Progress
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.SetTicks(i, 1000)
	}
}

func BenchmarkProgressSetTicksEnabled(b *testing.B) {
	p := &Progress{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.SetTicks(i, 1000)
	}
}

func BenchmarkTraceInstantDisabled(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant(0, "mac-frame", float64(i), nil)
	}
}

func BenchmarkTraceBeginEndDisabled(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin(0, "window", float64(i), nil)
		tr.End(0, float64(i)+0.5)
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var p *Progress
	var tr *Trace
	cases := map[string]func(){
		"Progress.SetTicks": func() { p.SetTicks(1, 2) },
		"Progress.SetRun":   func() { p.SetRun(1, 2) },
		"Progress.Start":    func() { p.Start(time.Unix(1, 0)) },
		"Trace.Begin":       func() { tr.Begin(0, "x", 1, nil) },
		"Trace.End":         func() { tr.End(0, 1) },
		"Trace.Complete":    func() { tr.Complete(0, "x", 1, 1, nil) },
		"Trace.Instant":     func() { tr.Instant(0, "x", 1, nil) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s disabled path allocates %v allocs/op, want 0", name, allocs)
		}
	}
}
