package caltable

import (
	"math"
	"testing"
	"testing/quick"

	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

func calibrated(t *testing.T) (*Table, radio.Model) {
	t.Helper()
	m := radio.DefaultModel()
	opts := DefaultOptions()
	opts.Samples = 150000 // enough for tests, faster than production
	tab, err := Calibrate(m, opts, sim.NewRNG(1).Stream("cal"))
	if err != nil {
		t.Fatal(err)
	}
	return tab, m
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.MaxDist = 0 },
		func(o *Options) { o.Samples = 0 },
		func(o *Options) { o.HistBinM = 0 },
		func(o *Options) { o.GaussianLimitM = 0 },
		func(o *Options) { o.MinBinSamples = 0 },
		// Node counts past the cap: once a makeslice panic.
		func(o *Options) { o.LUTStepM = 1e-12 },
		func(o *Options) { o.HistBinM = 1e-12 },
		// Distances are sounded from 0.5 m out.
		func(o *Options) { o.MaxDist = 0.2 },
		func(o *Options) { o.MaxDist = 0.5 },
		func(o *Options) { o.MaxDist = math.Inf(1) },
		func(o *Options) { o.MaxDist = math.NaN() },
		func(o *Options) { o.HistBinM = math.NaN() },
		func(o *Options) { o.LUTStepM = math.NaN() },
		func(o *Options) { o.LUTFloor = math.NaN() },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid options", i)
		}
	}
}

func TestCalibrateRejectsBadModel(t *testing.T) {
	m := radio.DefaultModel()
	m.BitrateBps = 0
	if _, err := Calibrate(m, DefaultOptions(), sim.NewRNG(1)); err == nil {
		t.Fatal("accepted invalid model")
	}
	if _, err := Calibrate(radio.DefaultModel(), Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("accepted invalid options")
	}
	// Once an out-of-memory fatal error: one PDF slot per dBm of the clamp.
	m = radio.DefaultModel()
	m.MinRSSIDBm = -1e12
	if _, err := Calibrate(m, DefaultOptions(), sim.NewRNG(1)); err == nil {
		t.Fatal("accepted a trillion-dB clamp range")
	}
}

func TestGaussianPDFBasics(t *testing.T) {
	g := GaussianPDF{Mu: 10, Sigma: 2}
	if !g.IsGaussian() {
		t.Error("IsGaussian false")
	}
	if g.Mean() != 10 {
		t.Error("Mean")
	}
	// Peak at the mean, symmetric, integrates to ~1.
	if g.Density(10) < g.Density(12) || g.Density(10) < g.Density(8) {
		t.Error("density not peaked at mean")
	}
	if math.Abs(g.Density(8)-g.Density(12)) > 1e-12 {
		t.Error("density not symmetric")
	}
	var integral float64
	for d := 0.0; d < 30; d += 0.01 {
		integral += g.Density(d) * 0.01
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Errorf("integral = %v, want ~1", integral)
	}
}

func TestEmpiricalPDFBasics(t *testing.T) {
	e := &EmpiricalPDF{BinWidth: 2, Bins: []float64{0.1, 0.3, 0.1}, mean: 2.5}
	if e.IsGaussian() {
		t.Error("IsGaussian true for empirical")
	}
	if e.Mean() != 2.5 {
		t.Error("Mean")
	}
	if got := e.Density(-1); got != 0 {
		t.Errorf("Density(-1) = %v", got)
	}
	if got := e.Density(3); got != 0.3 {
		t.Errorf("Density(3) = %v, want 0.3", got)
	}
	if got := e.Density(100); got != 0 {
		t.Errorf("Density beyond bins = %v", got)
	}
}

// The paper's Figure 1(a): a strong RSSI like -52 dBm maps to a Gaussian
// PDF whose mean is the distance that produces that mean RSSI.
func TestStrongRSSIGaussian(t *testing.T) {
	tab, m := calibrated(t)
	pdf, ok := tab.Lookup(-52)
	if !ok {
		t.Fatal("-52 dBm not calibrated")
	}
	if !pdf.IsGaussian() {
		t.Fatal("-52 dBm PDF not Gaussian (paper Figure 1(a))")
	}
	nominal := m.DistanceForRSSI(-52)
	if math.Abs(pdf.Mean()-nominal) > 0.25*nominal+1 {
		t.Errorf("PDF mean %v, nominal distance %v", pdf.Mean(), nominal)
	}
}

// The paper's Figure 1(b): a weak RSSI like -86 dBm (beyond 40 m) is no
// longer Gaussian.
func TestWeakRSSINotGaussian(t *testing.T) {
	tab, m := calibrated(t)
	pdf, ok := tab.Lookup(-86)
	if !ok {
		t.Fatal("-86 dBm not calibrated")
	}
	if pdf.IsGaussian() {
		t.Fatal("-86 dBm PDF is Gaussian; paper Figure 1(b) says it must not be")
	}
	if m.DistanceForRSSI(-86) <= DefaultOptions().GaussianLimitM {
		t.Fatal("test premise broken: -86 dBm should correspond to >40 m")
	}
}

func TestRegimeBoundaryNearPaper40m(t *testing.T) {
	tab, m := calibrated(t)
	// Every calibrated RSSI whose nominal distance is well inside 40 m
	// must be Gaussian; well outside must be empirical.
	lo, hi, ok := tab.CalibratedRange()
	if !ok {
		t.Fatal("empty table")
	}
	for r := lo; r <= hi; r++ {
		pdf, ok := tab.Lookup(float64(r))
		if !ok {
			continue
		}
		nominal := m.DistanceForRSSI(float64(r))
		if nominal < 35 && !pdf.IsGaussian() {
			t.Errorf("RSSI %d (nominal %.1f m) not Gaussian", r, nominal)
		}
		if nominal > 45 && pdf.IsGaussian() {
			t.Errorf("RSSI %d (nominal %.1f m) unexpectedly Gaussian", r, nominal)
		}
	}
}

func TestLookupQuantizes(t *testing.T) {
	tab, _ := calibrated(t)
	a, okA := tab.Lookup(-52.4)
	b, okB := tab.Lookup(-52.0)
	if !okA || !okB {
		t.Fatal("lookup failed")
	}
	if a != b {
		t.Error("lookup of -52.4 and -52.0 differ; want same integer bin")
	}
}

func TestLookupOutOfRange(t *testing.T) {
	tab, _ := calibrated(t)
	if _, ok := tab.Lookup(-500); ok {
		t.Error("lookup far below range succeeded")
	}
	if _, ok := tab.Lookup(+10); ok {
		t.Error("lookup above range succeeded")
	}
}

func TestPDFsIntegrateToOne(t *testing.T) {
	tab, _ := calibrated(t)
	lo, hi, _ := tab.CalibratedRange()
	step := 0.05
	for r := lo; r <= hi; r += 5 {
		pdf, ok := tab.Lookup(float64(r))
		if !ok {
			continue
		}
		var integral float64
		for d := 0.0; d < tab.MaxDist()+50; d += step {
			integral += pdf.Density(d) * step
		}
		if math.Abs(integral-1) > 0.05 {
			t.Errorf("RSSI %d: PDF integral = %v", r, integral)
		}
	}
}

// Stronger signal implies closer robot: PDF means must decrease (weakly)
// as RSSI increases.
func TestMeansMonotoneInRSSI(t *testing.T) {
	tab, _ := calibrated(t)
	lo, hi, _ := tab.CalibratedRange()
	prevMean := math.Inf(1)
	violations := 0
	count := 0
	for r := lo; r <= hi; r++ {
		pdf, ok := tab.Lookup(float64(r))
		if !ok {
			continue
		}
		count++
		if pdf.Mean() > prevMean+2 { // small sampling jitter allowed
			violations++
		}
		prevMean = pdf.Mean()
	}
	if count < 30 {
		t.Fatalf("too few calibrated bins: %d", count)
	}
	if violations > count/10 {
		t.Errorf("PDF means not monotone: %d violations out of %d bins", violations, count)
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	m := radio.DefaultModel()
	opts := DefaultOptions()
	opts.Samples = 20000
	a, err := Calibrate(m, opts, sim.NewRNG(5).Stream("cal"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(m, opts, sim.NewRNG(5).Stream("cal"))
	if err != nil {
		t.Fatal(err)
	}
	pa, okA := a.Lookup(-60)
	pb, okB := b.Lookup(-60)
	if okA != okB {
		t.Fatal("calibration determinism broken (presence)")
	}
	if okA && (pa.Mean() != pb.Mean()) {
		t.Error("calibration determinism broken (mean)")
	}
}

// Property: densities are never negative, for any calibrated RSSI and any
// distance.
func TestDensityNonNegativeProperty(t *testing.T) {
	tab, _ := calibrated(t)
	lo, hi, _ := tab.CalibratedRange()
	f := func(rRaw, dRaw uint16) bool {
		r := lo + int(rRaw)%(hi-lo+1)
		pdf, ok := tab.Lookup(float64(r))
		if !ok {
			return true
		}
		d := float64(dRaw) / 100 // 0 .. ~655 m
		return pdf.Density(d) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
