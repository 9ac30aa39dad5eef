package metrics

import (
	"math"
	"testing"
)

// Quantile must never panic: NaN p used to reach quantileSorted, where
// int(math.Floor(NaN)) produced a wild negative index.
func TestQuantileEdges(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64 // NaN means "want NaN"
	}{
		{"empty any p", nil, 0.5, math.NaN()},
		{"empty NaN p", nil, math.NaN(), math.NaN()},
		{"singleton mid", []float64{7}, 0.5, 7},
		{"singleton p=0", []float64{7}, 0, 7},
		{"singleton p=1", []float64{7}, 1, 7},
		{"singleton NaN p", []float64{7}, math.NaN(), math.NaN()},
		{"NaN p multi", []float64{1, 2, 3}, math.NaN(), math.NaN()},
		{"p below range clamps", []float64{1, 2, 3}, -0.5, 1},
		{"p above range clamps", []float64{1, 2, 3}, 1.5, 3},
		{"interpolates", []float64{0, 10}, 0.25, 2.5},
		{"exact index", []float64{0, 10, 20}, 0.5, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewCDF(tc.xs).Quantile(tc.p)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Errorf("Quantile(%v) = %v, want NaN", tc.p, got)
				}
				return
			}
			if got != tc.want {
				t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}
