// Package caltable implements the offline calibration phase of the
// Sichitiu-Ramadurai localization algorithm as used by CoCoA: it builds the
// PDF Table, stored at each robot, mapping every (quantized) RSSI value to
// a probability distribution function of distance.
//
// The paper calibrated against outdoor WaveLAN measurements and found the
// distance PDF to be Gaussian for RSSI down to about -80 dBm (distances up
// to ~40 m) and non-Gaussian beyond, where multipath and fading dominate
// (Figure 1). This package reproduces that procedure by Monte-Carlo
// sounding of the same channel model the simulation uses: for each RSSI
// bin it fits a Gaussian when the bin's nominal distance is within the
// Gaussian regime and falls back to an empirical histogram otherwise.
//
// A sounding's RSSI bin is decided on radio.MeanBounds rungs 1/16 m wide,
// without the path-loss logarithm for almost every sounding, and the
// distances reach their bins by a counting sort in sounding order; the
// tables are bit for bit those of evaluating every sounding's mean and
// appending per bin.
package caltable

import (
	"fmt"
	"math"

	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// DistPDF is a probability density over distance in meters.
type DistPDF interface {
	// Density returns the probability density at distance d.
	Density(d float64) float64
	// Mean returns the distribution's mean distance.
	Mean() float64
	// Std returns the distribution's standard deviation, which parametric
	// estimators (e.g. an EKF) use as the range-measurement noise.
	Std() float64
	// IsGaussian reports whether the PDF was fit as a Gaussian.
	IsGaussian() bool
}

// GaussianPDF is a normal distance distribution, the near-regime fit.
type GaussianPDF struct {
	Mu    float64
	Sigma float64
}

var _ DistPDF = GaussianPDF{}

// Density implements DistPDF.
func (g GaussianPDF) Density(d float64) float64 {
	z := (d - g.Mu) / g.Sigma
	return math.Exp(-0.5*z*z) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// Mean implements DistPDF.
func (g GaussianPDF) Mean() float64 { return g.Mu }

// Std implements DistPDF.
func (g GaussianPDF) Std() float64 { return g.Sigma }

// IsGaussian implements DistPDF.
func (g GaussianPDF) IsGaussian() bool { return true }

// EmpiricalPDF is a normalized histogram over distance, the far-regime
// representation where the Gaussian assumption breaks down.
type EmpiricalPDF struct {
	BinWidth float64
	// Density per bin; bin i covers [i*BinWidth, (i+1)*BinWidth).
	Bins []float64
	mean float64
	std  float64
}

var _ DistPDF = (*EmpiricalPDF)(nil)

// Density implements DistPDF.
func (e *EmpiricalPDF) Density(d float64) float64 {
	if d < 0 {
		return 0
	}
	i := int(d / e.BinWidth)
	if i >= len(e.Bins) {
		return 0
	}
	return e.Bins[i]
}

// Mean implements DistPDF.
func (e *EmpiricalPDF) Mean() float64 { return e.mean }

// Std implements DistPDF.
func (e *EmpiricalPDF) Std() float64 { return e.std }

// IsGaussian implements DistPDF.
func (e *EmpiricalPDF) IsGaussian() bool { return false }

// Options parameterizes the calibration phase.
type Options struct {
	// MaxDist is the maximum sounded distance in meters; it should cover
	// the radio range.
	MaxDist float64
	// Samples is the total number of Monte-Carlo channel soundings.
	Samples int
	// HistBinM is the histogram bin width for non-Gaussian PDFs.
	HistBinM float64
	// GaussianLimitM is the distance boundary of the Gaussian regime
	// (paper: 40 m).
	GaussianLimitM float64
	// MinBinSamples is the minimum soundings an RSSI bin needs before a
	// PDF is stored for it.
	MinBinSamples int
	// LUTStepM is the radial resolution, in meters, at which Gaussian PDFs
	// are tabulated for the grid filter's fast path (histograms tabulate
	// exactly at their own bin width). Zero disables tabulation and Lookup
	// returns the analytic PDFs.
	LUTStepM float64
	// LUTFloor is the constraint floor the tables' support bounds are
	// computed against; it must not exceed the consumer's clamp (the grid
	// filter checks this before trusting the bounds).
	LUTFloor float64
}

// DefaultOptions returns calibration options matched to the paper's setup.
func DefaultOptions() Options {
	return Options{
		MaxDist:        220,
		Samples:        400000,
		HistBinM:       2,
		GaussianLimitM: 40,
		MinBinSamples:  50,
		LUTStepM:       0.0625,
		LUTFloor:       1e-6,
	}
}

// minSoundingM is the nearest distance calibration sounds at.
const minSoundingM = 0.5

// maxTableNodes caps the distance nodes of one histogram (⌈MaxDist/HistBinM⌉)
// or tabulated Gaussian (⌈MaxDist/LUTStepM⌉), so options cannot make the
// calibration allocate without bound. The defaults use 110 and 3,520.
const maxTableNodes = 1 << 16

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	switch {
	case !(o.MaxDist > minSoundingM) || math.IsInf(o.MaxDist, 1):
		return fmt.Errorf("caltable: MaxDist %v m must be finite and beyond the nearest sounding at %v m", o.MaxDist, minSoundingM)
	case o.Samples <= 0:
		return fmt.Errorf("caltable: Samples must be positive")
	case !(o.HistBinM > 0):
		return fmt.Errorf("caltable: HistBinM must be positive")
	case math.Ceil(o.MaxDist/o.HistBinM) > maxTableNodes:
		return fmt.Errorf("caltable: HistBinM %v m makes more than %d histogram bins", o.HistBinM, maxTableNodes)
	case !(o.GaussianLimitM > 0):
		return fmt.Errorf("caltable: GaussianLimitM must be positive")
	case o.MinBinSamples <= 0:
		return fmt.Errorf("caltable: MinBinSamples must be positive")
	case !(o.LUTStepM >= 0):
		return fmt.Errorf("caltable: LUTStepM must be non-negative")
	case o.LUTStepM > 0 && math.Ceil(o.MaxDist/o.LUTStepM) > maxTableNodes:
		return fmt.Errorf("caltable: LUTStepM %v m makes more than %d table nodes", o.LUTStepM, maxTableNodes)
	case o.LUTStepM > 0 && !(o.LUTFloor > 0):
		return fmt.Errorf("caltable: LUTFloor must be positive when tabulation is on")
	}
	return nil
}

// Table is the PDF Table stored at each robot: quantized RSSI -> distance
// PDF.
type Table struct {
	minRSSI int
	pdfs    []DistPDF // index = rssi - minRSSI; nil where uncalibrated
	maxDist float64
}

// Lookup returns the distance PDF for an observed RSSI (dBm), quantized to
// the nearest integer as a real card reports it. The second return is
// false when the RSSI value was never calibrated.
func (t *Table) Lookup(rssiDBm float64) (DistPDF, bool) {
	i := int(math.Round(rssiDBm)) - t.minRSSI
	if i < 0 || i >= len(t.pdfs) || t.pdfs[i] == nil {
		return nil, false
	}
	return t.pdfs[i], true
}

// MaxDist returns the calibrated distance horizon.
func (t *Table) MaxDist() float64 { return t.maxDist }

// CalibratedRange returns the weakest and strongest RSSI values that have a
// PDF, for diagnostics and plotting (Figure 1).
func (t *Table) CalibratedRange() (minRSSI, maxRSSI int, ok bool) {
	lo, hi := -1, -1
	for i, p := range t.pdfs {
		if p == nil {
			continue
		}
		if lo == -1 {
			lo = i
		}
		hi = i
	}
	if lo == -1 {
		return 0, 0, false
	}
	return t.minRSSI + lo, t.minRSSI + hi, true
}

// rungM is the width of the distance rungs the sounding loop brackets the
// mean RSSI on: at 1/16 m, about 98% of default soundings round to the
// same dBm at both bounds and skip the path-loss logarithm. Halving it
// would pass radio.MaxMeanRungs at the default 220 m horizon.
const rungM = 1.0 / 16

// Calibrate performs the offline calibration phase against the given
// channel model. This mirrors the paper's procedure of driving a robot to
// known distances and recording RSSI, except the channel is the simulated
// one — the same substitution the evaluation section of DESIGN.md records.
func Calibrate(m radio.Model, opts Options, rng *sim.RNG) (*Table, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	minRSSI := int(math.Floor(m.MinRSSIDBm))
	maxRSSI := int(math.Ceil(m.MaxRSSIDBm))
	nBins := maxRSSI - minRSSI + 1 // radio.Model.Validate bounds the span, so a uint16 indexes it

	// One pass records each sounding's distance and RSSI bin. A counting
	// sort then lays each bin's distances out contiguously in sounding
	// order, the order meanStd sums them in.
	var bounds radio.MeanBounds
	bounds.Init(&m, rungM, opts.MaxDist)
	dists := make([]float64, 0, opts.Samples)
	bins := make([]uint16, 0, opts.Samples)
	next := make([]int, nBins)
	for i := 0; i < opts.Samples; i++ {
		d := rng.Uniform(minSoundingM, opts.MaxDist)
		bin := int(m.SampleRoundedRSSI(d, &bounds, rng)) - minRSSI
		if bin < 0 || bin >= nBins {
			continue
		}
		dists, bins = append(dists, d), append(bins, uint16(bin))
		next[bin]++
	}
	offs := make([]int, nBins+1) // bin b's distances are sorted[offs[b]:offs[b+1]]
	for b, n := range next {
		offs[b+1] = offs[b] + n
		next[b] = offs[b]
	}
	sorted := make([]float64, len(dists))
	for i, b := range bins {
		sorted[next[b]] = dists[i]
		next[b]++
	}

	t := &Table{minRSSI: minRSSI, pdfs: make([]DistPDF, nBins), maxDist: opts.MaxDist}
	for bin := 0; bin < nBins; bin++ {
		ds := sorted[offs[bin]:offs[bin+1]]
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
			lut, err := Tabulate(pdf, opts.LUTFloor, opts.LUTStepM, opts.MaxDist)
			if err != nil {
				return nil, err
			}
			pdf = lut
		}
		t.pdfs[bin] = pdf
	}
	return t, nil
}

func meanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	if n > 1 {
		std = math.Sqrt(m2 / (n - 1))
	}
	return mean, std
}

func histogram(ds []float64, binW, maxDist, mean, std float64) *EmpiricalPDF {
	n := int(math.Ceil(maxDist/binW)) + 1
	bins := make([]float64, n)
	for _, d := range ds {
		i := int(d / binW)
		if i >= n {
			i = n - 1
		}
		bins[i]++
	}
	// Normalize counts to a density: sum(bins)*binW == 1.
	total := float64(len(ds)) * binW
	for i := range bins {
		bins[i] /= total
	}
	return &EmpiricalPDF{BinWidth: binW, Bins: bins, mean: mean, std: std}
}
