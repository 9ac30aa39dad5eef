package radio

import (
	"testing"

	"cocoa/internal/sim"
)

func BenchmarkSampleRSSINear(b *testing.B) {
	m := DefaultModel()
	rng := sim.NewRNG(1).Stream("bench")
	for i := 0; i < b.N; i++ {
		_ = m.SampleRSSI(20, rng)
	}
}

func BenchmarkSampleRSSIFar(b *testing.B) {
	m := DefaultModel()
	rng := sim.NewRNG(1).Stream("bench")
	for i := 0; i < b.N; i++ {
		_ = m.SampleRSSI(120, rng)
	}
}

// BenchmarkSampleRSSIGatedFar times the MAC's common case on a swarm: a
// far sample the mean-RSSI ceiling (here the exact mean plus the MAC's
// margin) proves below sensitivity without evaluating the path-loss
// logarithm. Beyond 300 m fewer than 1% of default-model samples reach
// sensitivity.
func BenchmarkSampleRSSIGatedFar(b *testing.B) {
	m := DefaultModel()
	rng := sim.NewRNG(1).Stream("bench")
	ceil := m.MeanRSSI(300) + 1e-9
	for i := 0; i < b.N; i++ {
		_, _ = m.SampleRSSIAbove(300, ceil, m.SensitivityDBm, rng)
	}
}
