package caltable

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// oracleCalibrate is the calibration loop as it stood before the sounding
// bins were decided without the path-loss logarithm: every sounding
// evaluates SampleRSSI, distances are appended per bin, and Gaussians are
// tabulated at every node of [0, MaxDist]. It is the reference Calibrate
// must reproduce bit for bit.
func oracleCalibrate(m radio.Model, opts Options, rng *sim.RNG) (*Table, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	minRSSI := int(math.Floor(m.MinRSSIDBm))
	maxRSSI := int(math.Ceil(m.MaxRSSIDBm))
	nBins := maxRSSI - minRSSI + 1
	dists := make([][]float64, nBins)

	for i := 0; i < opts.Samples; i++ {
		d := rng.Uniform(0.5, opts.MaxDist)
		r := m.SampleRSSI(d, rng)
		bin := int(math.Round(r)) - minRSSI
		if bin < 0 || bin >= nBins {
			continue
		}
		dists[bin] = append(dists[bin], d)
	}

	t := &Table{minRSSI: minRSSI, pdfs: make([]DistPDF, nBins), maxDist: opts.MaxDist}
	for bin, ds := range dists {
		if len(ds) < opts.MinBinSamples {
			continue
		}
		mean, std := meanStd(ds)
		nominal := m.DistanceForRSSI(float64(minRSSI + bin))
		var pdf DistPDF
		if nominal <= opts.GaussianLimitM && std > 0 {
			pdf = GaussianPDF{Mu: mean, Sigma: std}
		} else {
			pdf = histogram(ds, opts.HistBinM, opts.MaxDist, mean, std)
		}
		if opts.LUTStepM > 0 {
			lut, err := oracleTabulate(pdf, opts.LUTFloor, opts.LUTStepM, opts.MaxDist)
			if err != nil {
				return nil, err
			}
			pdf = lut
		}
		t.pdfs[bin] = pdf
	}
	return t, nil
}

// oracleTabulate is Tabulate as it stood before Gaussians were evaluated
// over their support only: it scans the density at every node of
// [0, maxDist].
func oracleTabulate(pdf DistPDF, floor, step, maxDist float64) (*TabulatedPDF, error) {
	if floor <= 0 || step <= 0 || maxDist <= 0 {
		return nil, fmt.Errorf("caltable: Tabulate needs positive floor/step/maxDist")
	}
	t := &TabulatedPDF{base: pdf, floor: floor}
	if e, ok := pdf.(*EmpiricalPDF); ok {
		t.nearest = true
		t.step = e.BinWidth
		lo, hi := -1, -1
		for i, b := range e.Bins {
			if b >= floor {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if lo < 0 {
			lo, hi = 0, -1
		}
		t.dens = append([]float64(nil), e.Bins[lo:hi+1]...)
		t.r0 = float64(lo) * e.BinWidth
		t.r1 = float64(hi+1) * e.BinWidth
		t.invStep = 1 / t.step
		return t, nil
	}

	t.step = step
	n := int(math.Ceil(maxDist/step)) + 1
	samples := make([]float64, n+1)
	lo, hi := -1, -1
	for i := range samples {
		samples[i] = pdf.Density(float64(i) * step)
		if samples[i] >= floor {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		lo, hi = 0, -1
	}
	if lo > 0 {
		lo--
	}
	if hi < n {
		hi++
	}
	t.dens = append([]float64(nil), samples[lo:hi+1]...)
	t.r0 = float64(lo) * step
	t.r1 = float64(hi) * step
	t.invStep = 1 / step
	return t, nil
}

// tableDigest folds every PDF of t into one FNV-1a hash: per RSSI slot its
// kind, μ and σ, the histogram bins of an empirical base, and the tabulated
// densities with r0, r1 and step.
func tableDigest(t *Table) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	f(float64(t.minRSSI))
	f(t.maxDist)
	for _, p := range t.pdfs {
		if p == nil {
			h.Write([]byte{0})
			continue
		}
		base := p
		lut, tabulated := p.(*TabulatedPDF)
		if tabulated {
			base = lut.Base()
		}
		switch b := base.(type) {
		case GaussianPDF:
			h.Write([]byte{1})
			f(b.Mu)
			f(b.Sigma)
		case *EmpiricalPDF:
			h.Write([]byte{2})
			f(b.mean)
			f(b.std)
			f(b.BinWidth)
			for _, x := range b.Bins {
				f(x)
			}
		}
		if tabulated {
			h.Write([]byte{3})
			f(lut.r0)
			f(lut.r1)
			f(lut.step)
			for _, x := range lut.dens {
				f(x)
			}
		}
	}
	return h.Sum64()
}

// TestCalibrateDigest pins the calibrated tables' bits, captured before the
// sounding loop was rewritten: the default model and options at two seeds,
// the service workload's CoCoA job kind (80,000 soundings) and the
// power-control extension's strongest transmitter. Any change to a PDF
// kind, a moment, a histogram bin or a tabulated density moves a digest.
func TestCalibrateDigest(t *testing.T) {
	loud := radio.DefaultModel()
	loud.TxPowerDBm = 18
	service := DefaultOptions()
	service.Samples = 80000
	for _, c := range []struct {
		name  string
		model radio.Model
		opts  Options
		seed  int64
		want  uint64
	}{
		{"default/seed1", radio.DefaultModel(), DefaultOptions(), 1, 0xb50878d3ddfbfe04},
		{"default/seed7", radio.DefaultModel(), DefaultOptions(), 7, 0x28154e00e8a2b258},
		{"service", radio.DefaultModel(), service, 1500, 0x91f4279dfa08299c},
		{"power-control-18dBm", loud, DefaultOptions(), 1, 0x7dd103e53a3dfad8},
	} {
		tab, err := Calibrate(c.model, c.opts, sim.NewRNG(c.seed).Stream("calibration"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tableDigest(tab); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// FuzzCalibrate compares Calibrate with the oracle loop over random seeds,
// sounding counts, distance horizons and radio parameters that pass
// validation: the tables must be deeply equal.
func FuzzCalibrate(f *testing.F) {
	dm := radio.DefaultModel()
	add := func(seed int64, samples uint16, maxDist float64, m radio.Model) {
		f.Add(seed, samples, maxDist, m.TxPowerDBm, m.ReferenceDist, m.PathLossExp, m.ShadowSigmaDB,
			m.MultipathDist, m.MultipathSigmaDB, m.DeepFadeProb, m.DeepFadeMeanDB, m.MinRSSIDBm, m.MaxRSSIDBm)
	}
	add(1, 20000, 220, dm)
	add(2, 5000, 60, dm)
	add(3, 30000, 400, dm)
	offset := dm
	offset.ReferenceDist = 2.5
	add(4, 10000, 220, offset)
	quiet := dm
	quiet.ShadowSigmaDB, quiet.MultipathSigmaDB = 0, 0
	add(5, 10000, 150, quiet)
	narrow := dm
	narrow.MinRSSIDBm, narrow.MaxRSSIDBm = -80.5, -49.25
	add(6, 10000, 220, narrow)
	f.Fuzz(func(t *testing.T, seed int64, samples uint16, maxDist, tx, ref, exp, shadow,
		mpDist, mpSigma, deepProb, deepMean, minRSSI, maxRSSI float64) {
		m := radio.DefaultModel()
		m.TxPowerDBm, m.ReferenceDist, m.PathLossExp, m.ShadowSigmaDB = tx, ref, exp, shadow
		m.MultipathDist, m.MultipathSigmaDB, m.DeepFadeProb, m.DeepFadeMeanDB = mpDist, mpSigma, deepProb, deepMean
		m.MinRSSIDBm, m.MaxRSSIDBm = minRSSI, maxRSSI
		opts := DefaultOptions()
		opts.Samples = 1 + int(samples)%40000
		opts.MaxDist = maxDist
		if m.Validate() != nil || opts.Validate() != nil {
			return
		}
		want, werr := oracleCalibrate(m, opts, sim.NewRNG(seed).Stream("calibration"))
		got, gerr := Calibrate(m, opts, sim.NewRNG(seed).Stream("calibration"))
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("errors differ: oracle %v, Calibrate %v", werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %d soundings, MaxDist %v: table differs from the oracle", seed, opts.Samples, opts.MaxDist)
		}
	})
}
