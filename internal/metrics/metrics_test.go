package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.FractionBelow(5); got != 0.5 {
		t.Errorf("FractionBelow(5) = %v", got)
	}
	if got := c.FractionBelow(0); got != 0 {
		t.Errorf("FractionBelow(0) = %v", got)
	}
	if got := c.FractionBelow(100); got != 1 {
		t.Errorf("FractionBelow(100) = %v", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(0.5); got != 5.5 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	xs, ps := c.Points()
	if len(xs) != 10 || ps[9] != 1 || ps[0] != 0.1 {
		t.Errorf("Points = %v %v", xs, ps)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.FractionBelow(1)) || !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF must return NaN")
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	if in[0] != 3 {
		t.Error("NewCDF sorted the caller's slice")
	}
	_ = c
}

// Property: FractionBelow is monotone and Quantile is its rough inverse.
func TestCDFProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := NewCDF(xs)
		// Monotonicity over a sweep.
		prev := -1.0
		for x := 0.0; x <= 65535; x += 8191 {
			p := c.FractionBelow(x)
			if p < prev {
				return false
			}
			prev = p
		}
		// Quantile within sample range and monotone.
		sort.Float64s(xs)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			q := c.Quantile(p)
			if q < xs[0]-1e-9 || q > xs[len(xs)-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
