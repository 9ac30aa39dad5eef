package caltable

import (
	"math"
	"testing"

	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

const (
	testFloor = 1e-6
	testStep  = 0.0625
)

// gaussLerpBound is the analytic worst-case linear-interpolation error for
// a Gaussian density sampled at the given step: step²·max|f″|/8 with
// max|f″| = 1/(σ³√2π) at the peak.
func gaussLerpBound(sigma, step float64) float64 {
	return step * step / (8 * sigma * sigma * sigma * math.Sqrt(2*math.Pi))
}

func TestTabulateEmpiricalExact(t *testing.T) {
	e := &EmpiricalPDF{
		BinWidth: 2,
		Bins:     []float64{0, 1e-9, 0.01, 0.2, 0.15, 3e-7, 0.1, 0.04, 1e-8, 0},
		mean:     8, std: 3,
	}
	lut, err := Tabulate(e, testFloor, testStep, 25)
	if err != nil {
		t.Fatal(err)
	}
	rIn, rOut := lut.Support()
	for d := -1.0; d < 30; d += 0.01 {
		got, want := lut.Density(d), e.Density(d)
		if d >= rIn && d < rOut {
			if got != want {
				t.Fatalf("d=%v: in-support density %v != analytic %v", d, got, want)
			}
		} else {
			if got != 0 {
				t.Fatalf("d=%v: outside support, got %v", d, got)
			}
			if want >= testFloor {
				t.Fatalf("d=%v: analytic %v >= floor outside support [%v,%v]", d, want, rIn, rOut)
			}
		}
	}
}

func TestTabulateGaussianAgreement(t *testing.T) {
	for _, sigma := range []float64{0.8, 2, 5, 12} {
		for _, mu := range []float64{3, 20, 40} {
			g := GaussianPDF{Mu: mu, Sigma: sigma}
			lut, err := Tabulate(g, testFloor, testStep, 220)
			if err != nil {
				t.Fatal(err)
			}
			rIn, rOut := lut.Support()
			bound := gaussLerpBound(sigma, testStep) * 1.001
			for d := 0.0; d < 220; d += 0.003 {
				got, want := lut.Density(d), g.Density(d)
				if d >= rIn && d < rOut {
					if math.Abs(got-want) > bound {
						t.Fatalf("mu=%v sigma=%v d=%v: |%v-%v| > %v", mu, sigma, d, got, want, bound)
					}
				} else if want >= testFloor {
					t.Fatalf("mu=%v sigma=%v d=%v: analytic %v >= floor outside support", mu, sigma, d, want)
				}
			}
		}
	}
}

// TestCalibratedTableAgreement exercises the satellite contract end to end:
// every PDF a calibrated table hands out is tabulated, and over the full
// calibrated RSSI range its table density agrees with the analytic base
// within the lerp bound (exactly, for histogram bins) across the distance
// support.
func TestCalibratedTableAgreement(t *testing.T) {
	opts := DefaultOptions()
	opts.Samples = 60000
	tab, err := Calibrate(radio.DefaultModel(), opts, sim.NewRNG(11).Stream("cal"))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := tab.CalibratedRange()
	if !ok {
		t.Fatal("no calibrated bins")
	}
	checked := 0
	for r := lo; r <= hi; r++ {
		pdf, ok := tab.Lookup(float64(r))
		if !ok {
			continue
		}
		lut, ok := pdf.(*TabulatedPDF)
		if !ok {
			t.Fatalf("RSSI %d: Lookup returned %T, want *TabulatedPDF", r, pdf)
		}
		checked++
		base := lut.Base()
		bound := 0.0
		if base.IsGaussian() {
			bound = gaussLerpBound(base.Std(), opts.LUTStepM) * 1.001
		}
		rIn, rOut := lut.Support()
		for d := 0.0; d < opts.MaxDist; d += 0.017 {
			got, want := lut.Density(d), base.Density(d)
			if d >= rIn && d < rOut {
				if math.Abs(got-want) > bound {
					t.Fatalf("RSSI %d d=%v: |%v-%v| > %v", r, d, got, want, bound)
				}
			} else if want >= opts.LUTFloor {
				t.Fatalf("RSSI %d d=%v: analytic %v >= floor outside support", r, d, want)
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d tabulated bins checked", checked)
	}
}

func TestTabulateRejectsBadArgs(t *testing.T) {
	g := GaussianPDF{Mu: 10, Sigma: 2}
	for _, c := range []struct{ floor, step, maxDist float64 }{
		{0, 1, 10}, {1e-6, 0, 10}, {1e-6, 1, 0},
		{math.NaN(), 1, 10}, {1e-6, math.NaN(), 10}, {1e-6, 1, math.NaN()},
		{1e-6, 1e-12, 220}, // past the node cap
	} {
		if _, err := Tabulate(g, c.floor, c.step, c.maxDist); err == nil {
			t.Errorf("Tabulate(%+v) accepted", c)
		}
	}
	if _, err := Tabulate(&TabulatedPDF{}, 1e-6, 1, 10); err == nil {
		t.Error("Tabulate accepted a PDF that is neither Gaussian nor a histogram")
	}
}

func TestTabulateEmptySupport(t *testing.T) {
	// A density everywhere below the floor must yield an empty support and
	// zero densities, not panic.
	g := GaussianPDF{Mu: 1000, Sigma: 1} // support far beyond maxDist
	lut, err := Tabulate(g, testFloor, testStep, 50)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0.0; d < 60; d += 0.5 {
		if lut.Density(d) != 0 {
			t.Fatalf("d=%v: density %v, want 0", d, lut.Density(d))
		}
	}
}

// FuzzTabulateAgreement drives random Gaussian shapes and probe distances
// through the table, asserting the lerp bound and support contract hold for
// every reachable parameter combination.
func FuzzTabulateAgreement(f *testing.F) {
	f.Add(20.0, 2.0, 15.0)
	f.Add(3.0, 0.6, 3.1)
	f.Add(100.0, 20.0, 140.0)
	f.Fuzz(func(t *testing.T, mu, sigma, d float64) {
		if !(mu > 0.1 && mu < 200) || !(sigma > 0.5 && sigma < 40) || !(d >= 0 && d < 250) {
			t.Skip()
		}
		const maxDist = 220.0
		g := GaussianPDF{Mu: mu, Sigma: sigma}
		lut, err := Tabulate(g, testFloor, testStep, maxDist)
		if err != nil {
			t.Fatal(err)
		}
		got, want := lut.Density(d), g.Density(d)
		rIn, rOut := lut.Support()
		if d >= rIn && d < rOut {
			if math.Abs(got-want) > gaussLerpBound(sigma, testStep)*1.001 {
				t.Fatalf("in-support disagreement: %v vs %v", got, want)
			}
		} else {
			if got != 0 {
				t.Fatalf("outside support density %v", got)
			}
			// The table is truncated at maxDist by construction, so the
			// "below floor outside support" guarantee only covers the
			// tabulated range; beyond it the analytic density may still
			// exceed the floor (e.g. mu near maxDist with a wide sigma).
			if want >= testFloor && d < maxDist {
				t.Fatalf("analytic %v >= floor outside support", want)
			}
		}
	})
}
