package obs

import (
	"testing"
	"time"
)

// The disabled path of every record site must stay free: a nil Progress
// pointer degenerates each call to a nil check, with zero allocations.
// These benchmarks time that contract; the alloc counts are asserted by
// the 0-allocs test below.

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

func TestDisabledPathZeroAllocs(t *testing.T) {
	var p *Progress
	cases := map[string]func(){
		"Progress.SetTicks": func() { p.SetTicks(1, 2) },
		"Progress.SetRun":   func() { p.SetRun(1, 2) },
		"Progress.Start":    func() { p.Start(time.Unix(1, 0)) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s disabled path allocates %v allocs/op, want 0", name, allocs)
		}
	}
}
