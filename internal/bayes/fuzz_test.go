package bayes

import (
	"math"
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/geom"
)

// FuzzGridStats drives the incremental-statistics grid and the eager
// reference through the same operation sequence decoded from the fuzz
// input, asserting after every step that the two read paths agree within
// 1e-9 and that the belief invariants hold. Each operation consumes four
// bytes: an opcode selector and three operand bytes (position / density
// shape), so the fuzzer explores adversarial interleavings of beacon
// updates, renormalizations, and resets — including degenerate densities.
// Two opcodes build calibrated-style tables, so the fuzzer reaches the
// nearest and lerp cell kernels too: a tabulated histogram whose bins are
// the next 1-32 input bytes (decoded by histBin, so sub-floor and NaN bins
// can sit inside the support), and a tabulated Gaussian.
func FuzzGridStats(f *testing.F) {
	// Seed corpus: a plain beacon train, a renorm/reset interleave, a
	// degenerate-density mix, a long run crossing the re-sum backstop, and
	// a table mix (a histogram with a NaN and a sub-floor bin inside its
	// support, then a tabulated Gaussian).
	f.Add([]byte{0, 10, 20, 8, 0, 200, 120, 30, 0, 90, 250, 2})
	f.Add([]byte{0, 50, 50, 12, 1, 0, 0, 0, 0, 60, 70, 5, 2, 0, 0, 0, 0, 80, 10, 40})
	f.Add([]byte{3, 128, 128, 0, 4, 17, 200, 9, 5, 255, 255, 255, 0, 33, 44, 55})
	long := make([]byte, 4*(statsResumEvery+8))
	for i := range long {
		long[i] = byte(i*37 + 11)
	}
	f.Add(long)
	f.Add([]byte{7, 60, 70, 0x47, 0, 0, 9, 40, 2, 80, 1, 30, 8, 100, 20, 40, 7, 0, 255, 0x23, 0, 50, 60, 70})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4*512 {
			return
		}
		inc, err := NewGrid(geom.Square(60), 4)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := NewGrid(geom.Square(60), 4)
		if err != nil {
			t.Fatal(err)
		}
		eager.SetStatsMode(StatsEager)

		apply := func(pos geom.Vec2, pdf DistanceDensity) {
			inc.ApplyBeacon(pos, pdf)
			eager.ApplyBeacon(pos, pdf)
		}
		for off, step := 0, 0; off+4 <= len(data); step++ {
			op, a, b, c := data[off], data[off+1], data[off+2], data[off+3]
			off += 4
			// Positions may fall outside the area, like real beacons from
			// robots just past the boundary.
			pos := geom.Vec2{
				X: float64(a)/2 - 30,
				Y: float64(b)/2 - 30,
			}
			switch op % 10 {
			case 1:
				inc.Renormalize()
				eager.Renormalize()
			case 2:
				inc.Reset()
				eager.Reset()
			case 3:
				apply(pos, spikeDensity{at: float64(c)})
			case 4:
				apply(pos, nanDensity{})
			case 5:
				apply(pos, infDensity{})
			case 6:
				apply(pos, flatDensity{v: float64(c) * 1e-9})
			case 7:
				// c: low five bits pick the bin count, high three the bin
				// width (0.5-4 m); the bins follow in the input.
				raw := data[off:min(off+1+int(c&31), len(data))]
				off += len(raw)
				bins := make([]float64, len(raw))
				for i, v := range raw {
					bins[i] = histBin(v)
				}
				width := 0.5 * float64(1+int(c>>5))
				apply(pos, tabulate(t, &caltable.EmpiricalPDF{BinWidth: width, Bins: bins}, 0.0625))
			case 8:
				apply(pos, tabulate(t, caltable.GaussianPDF{
					Mu:    1 + float64(c)/2,
					Sigma: 0.5 + float64(a%16),
				}, 0.0625*float64(1+b%8)))
			default:
				apply(pos, gaussDensity{
					mean: 1 + float64(c)/2,
					std:  0.5 + float64(a%16),
				})
			}

			const tol = 1e-9
			ei, ee := inc.Estimate(), eager.Estimate()
			if d := ei.Dist(ee); !(d <= tol) {
				t.Fatalf("op %d: Estimate diverged by %v (incremental %v, eager %v)", step, d, ei, ee)
			}
			hi, he := inc.Entropy(), eager.Entropy()
			if d := math.Abs(hi - he); !(d <= tol*math.Max(1, math.Abs(he))) {
				t.Fatalf("op %d: Entropy diverged: incremental %v, eager %v", step, hi, he)
			}
			ti, te := inc.TotalProbability(), eager.TotalProbability()
			if d := math.Abs(ti - te); !(d <= tol) {
				t.Fatalf("op %d: TotalProbability diverged: incremental %v, eager %v", step, ti, te)
			}
			if math.Abs(ti-1) > 1e-6 {
				t.Fatalf("op %d: total probability %v drifted from 1", step, ti)
			}
		}
	})
}

// histBin decodes one fuzz byte into a histogram bin density: 0 is an empty
// bin, 1 a sub-floor dip, 2 a NaN bin, and anything else a density well
// above the constraint floor.
func histBin(v byte) float64 {
	switch v {
	case 0:
		return 0
	case 1:
		return constraintFloor / 1000
	case 2:
		return math.NaN()
	}
	return float64(v) * 1e-3
}

// tabulate wraps pdf in the radial lookup table the calibration hands out,
// against the grid's constraint floor.
func tabulate(t *testing.T, pdf caltable.DistPDF, step float64) *caltable.TabulatedPDF {
	t.Helper()
	tab, err := caltable.Tabulate(pdf, constraintFloor, step, 200)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}
