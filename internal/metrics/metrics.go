// Package metrics provides the empirical CDF behind the paper's Figure 8
// error snapshots. The error-over-time series itself is a run's
// Result.Times and Result.AvgError (internal/cocoa), read at an instant
// with Result.ErrorAt.
package metrics

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// FractionBelow returns P(X <= x).
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile (0 <= p <= 1) by linear interpolation.
// Out-of-range p clamps to the extremes; a NaN p or an empty sample set
// yields NaN rather than an index panic.
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	return quantileSorted(c.sorted, p)
}

// Points returns (value, cumulative probability) pairs suitable for
// plotting the CDF curve.
func (c *CDF) Points() (xs, ps []float64) {
	n := len(c.sorted)
	xs = append([]float64(nil), c.sorted...)
	ps = make([]float64, n)
	for i := range ps {
		ps[i] = float64(i+1) / float64(n)
	}
	return xs, ps
}

// quantileSorted interpolates the p-quantile of an ascending slice.
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
