package caltable

import (
	"testing"

	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// BenchmarkCalibrate times one default calibration build, the set-up cost
// of every experiment and served job whose seed is not cached yet. Each
// iteration draws a fresh seed, so no table is reused.
func BenchmarkCalibrate(b *testing.B) {
	m, opts := radio.DefaultModel(), DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(m, opts, sim.NewRNG(int64(i)).Stream("calibration")); err != nil {
			b.Fatal(err)
		}
	}
}
