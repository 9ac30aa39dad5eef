package radio

import (
	"math"
	"testing"
	"testing/quick"

	"cocoa/internal/sim"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("DefaultModel invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Model)
	}{
		{"zero reference dist", func(m *Model) { m.ReferenceDist = 0 }},
		{"negative exponent", func(m *Model) { m.PathLossExp = -1 }},
		{"zero bitrate", func(m *Model) { m.BitrateBps = 0 }},
		{"negative sigma", func(m *Model) { m.ShadowSigmaDB = -1 }},
		{"fade prob > 1", func(m *Model) { m.DeepFadeProb = 1.5 }},
		{"inverted clamp", func(m *Model) { m.MinRSSIDBm, m.MaxRSSIDBm = -30, -100 }},
		{"zero multipath dist", func(m *Model) { m.MultipathDist = 0 }},
		{"negative multipath dist", func(m *Model) { m.MultipathDist = -40 }},
		{"negative max sigma", func(m *Model) { m.MaxSigmaDB = -1 }},
		{"negative deep fade", func(m *Model) { m.DeepFadeMeanDB = -60 }},
		{"NaN tx power", func(m *Model) { m.TxPowerDBm = math.NaN() }},
		{"infinite sensitivity", func(m *Model) { m.SensitivityDBm = math.Inf(-1) }},
		// Once calibration allocated one PDF slot per dBm of this range.
		{"clamp range too wide", func(m *Model) { m.MinRSSIDBm = -1e12 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := DefaultModel()
			tt.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted bad model")
			}
		})
	}
}

// The paper's anchor points: -80 dBm at ~40 m, -52 dBm at single-digit
// meters, usable range beyond 150 m.
func TestPaperCalibrationAnchors(t *testing.T) {
	m := DefaultModel()
	at40 := m.MeanRSSI(40)
	if at40 > -75 || at40 < -85 {
		t.Errorf("MeanRSSI(40m) = %.1f dBm, want about -80", at40)
	}
	d52 := m.DistanceForRSSI(-52)
	if d52 < 2 || d52 > 10 {
		t.Errorf("distance for -52 dBm = %.1f m, want single digits", d52)
	}
	if r := m.MeanRange(); r < 150 {
		t.Errorf("MeanRange = %.1f m, want > 150 (802.11b outdoor)", r)
	}
}

func TestMeanRSSIMonotoneDecreasing(t *testing.T) {
	m := DefaultModel()
	prev := m.MeanRSSI(1)
	for d := 2.0; d <= 300; d += 1 {
		cur := m.MeanRSSI(d)
		if cur >= prev {
			t.Fatalf("MeanRSSI not decreasing at d=%v: %v >= %v", d, cur, prev)
		}
		prev = cur
	}
}

func TestMeanRSSIClampsBelowReference(t *testing.T) {
	m := DefaultModel()
	if got, want := m.MeanRSSI(0.1), m.MeanRSSI(m.ReferenceDist); got != want {
		t.Errorf("MeanRSSI(0.1) = %v, want clamped to %v", got, want)
	}
}

func TestDistanceForRSSIInvertsMean(t *testing.T) {
	m := DefaultModel()
	for _, d := range []float64{1, 5, 20, 40, 100, 160} {
		r := m.MeanRSSI(d)
		back := m.DistanceForRSSI(r)
		if math.Abs(back-d) > 1e-9*d {
			t.Errorf("round trip d=%v -> %v", d, back)
		}
	}
}

func TestFadeSigmaRegimes(t *testing.T) {
	m := DefaultModel()
	if got := m.FadeSigma(10); got != 0 {
		t.Errorf("near fade sigma = %v, want 0", got)
	}
	if got := m.FadeSigma(40); got != 0 {
		t.Errorf("fade sigma at boundary = %v, want 0", got)
	}
	if got := m.FadeSigma(80); got <= 0 {
		t.Errorf("far fade sigma = %v, want > 0", got)
	}
	if m.FadeSigma(120) <= m.FadeSigma(80) {
		t.Error("far fade sigma should grow with distance")
	}
	// The cap bounds fade growth.
	if got := m.FadeSigma(10000); got != m.MaxSigmaDB {
		t.Errorf("fade sigma at 10km = %v, want capped at %v", got, m.MaxSigmaDB)
	}
}

func TestMaxPlausibleRSSIEnvelope(t *testing.T) {
	m := DefaultModel()
	rng := sim.NewRNG(99).Stream("envelope")
	for _, d := range []float64{5, 40, 80, 160} {
		env := m.MaxPlausibleRSSI(d)
		for i := 0; i < 5000; i++ {
			if got := m.SampleRSSI(d, rng); got > env {
				t.Fatalf("sample %v at d=%v exceeds envelope %v", got, d, env)
			}
		}
	}
}

// Near-regime samples must look Gaussian around the mean; far-regime samples
// must show negative skew from deep fades (the Figure 1(b) effect).
func TestSampleRSSINoiseStructure(t *testing.T) {
	m := DefaultModel()
	rng := sim.NewRNG(42).Stream("radio-test")

	const n = 30000
	near := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		near = append(near, m.SampleRSSI(20, rng))
	}
	mean, std, skew := moments(near)
	if math.Abs(mean-m.MeanRSSI(20)) > 0.1 {
		t.Errorf("near mean = %v, want ~%v", mean, m.MeanRSSI(20))
	}
	if math.Abs(std-m.ShadowSigmaDB) > 0.15 {
		t.Errorf("near std = %v, want ~%v", std, m.ShadowSigmaDB)
	}
	if math.Abs(skew) > 0.1 {
		t.Errorf("near skew = %v, want ~0 (Gaussian)", skew)
	}

	// Widen the ADC clamp so the test observes the channel itself rather
	// than the card's reporting floor.
	wide := m
	wide.MinRSSIDBm = -200
	far := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		far = append(far, wide.SampleRSSI(80, rng))
	}
	_, _, farSkew := moments(far)
	if farSkew > -0.2 {
		t.Errorf("far skew = %v, want clearly negative (deep fades)", farSkew)
	}
}

func moments(xs []float64) (mean, std, skew float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	std = math.Sqrt(m2)
	skew = m3 / math.Pow(m2, 1.5)
	return mean, std, skew
}

func TestClampRSSI(t *testing.T) {
	m := DefaultModel()
	if got := m.ClampRSSI(-200); got != m.MinRSSIDBm {
		t.Errorf("ClampRSSI(-200) = %v", got)
	}
	if got := m.ClampRSSI(0); got != m.MaxRSSIDBm {
		t.Errorf("ClampRSSI(0) = %v", got)
	}
	if got := m.ClampRSSI(-60); got != -60 {
		t.Errorf("ClampRSSI(-60) = %v", got)
	}
}

func TestDecodable(t *testing.T) {
	m := DefaultModel()
	if !m.Decodable(m.SensitivityDBm) {
		t.Error("frame exactly at sensitivity must decode")
	}
	if m.Decodable(m.SensitivityDBm - 0.1) {
		t.Error("frame below sensitivity must not decode")
	}
}

func TestAirtime(t *testing.T) {
	m := DefaultModel()
	// A 250-byte frame at 2 Mbps takes 1 ms.
	if got := m.Airtime(250); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("Airtime(250B) = %v s, want 0.001", got)
	}
	if got := m.Airtime(0); got != 0 {
		t.Errorf("Airtime(0) = %v, want 0", got)
	}
}

func TestPropagationDelayTiny(t *testing.T) {
	d := PropagationDelay(200)
	if d <= 0 || d > 1e-5 {
		t.Errorf("PropagationDelay(200m) = %v, want sub-10us positive", d)
	}
}

// Property: sampled RSSI is always within the clamp range.
func TestSampleAlwaysClamped(t *testing.T) {
	m := DefaultModel()
	rng := sim.NewRNG(7).Stream("clamp")
	f := func(raw uint16) bool {
		d := 0.5 + float64(raw)/200 // up to ~328 m
		r := m.SampleRSSI(d, rng)
		return r >= m.MinRSSIDBm && r <= m.MaxRSSIDBm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distance inversion is monotone: weaker RSSI, larger distance.
func TestDistanceForRSSIMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint8) bool {
		r1 := -30 - float64(a%70)
		r2 := -30 - float64(b%70)
		if r1 == r2 {
			return true
		}
		if r1 > r2 {
			r1, r2 = r2, r1 // r1 weaker
		}
		return m.DistanceForRSSI(r1) > m.DistanceForRSSI(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzSampleRSSIGate checks SampleRSSIAbove against SampleRSSI on twin
// streams: for any valid model, distance and ceiling at or above the mean,
// the gated call must agree on whether the sample reaches the floor, return
// the same bits when it does, and leave its stream where SampleRSSI leaves
// its twin.
func FuzzSampleRSSIGate(f *testing.F) {
	dm := DefaultModel()
	add := func(seed int64, d, up float64, m Model) {
		f.Add(seed, d, up, m.TxPowerDBm, m.ShadowSigmaDB, m.MultipathDist, m.MultipathSigmaDB,
			m.MaxSigmaDB, m.DeepFadeProb, m.DeepFadeMeanDB, m.SensitivityDBm, m.MinRSSIDBm, m.MaxRSSIDBm)
	}
	add(1, 20, 0, dm)
	add(2, 160, 1e-9, dm)
	add(3, 300, 0.05, dm)
	add(4, 2000, math.Inf(1), dm)
	add(5, 0.25, 3, dm)
	quiet := dm
	quiet.ShadowSigmaDB, quiet.MaxSigmaDB = 0, 0
	add(6, 120, 0, quiet)
	add(7, 80, 0.5, quiet)
	floored := dm
	floored.MinRSSIDBm = floored.SensitivityDBm // every sample clamps to >= floor
	add(8, 400, 0, floored)
	always := dm
	always.DeepFadeProb = 1
	add(9, 90, 1e-6, always)
	f.Fuzz(func(t *testing.T, seed int64, d, up, tx, shadow, mpDist, mpSigma, maxSigma,
		deepProb, deepMean, sens, minRSSI, maxRSSI float64) {
		m := DefaultModel()
		m.TxPowerDBm, m.ShadowSigmaDB, m.MultipathDist, m.MultipathSigmaDB = tx, shadow, mpDist, mpSigma
		m.MaxSigmaDB, m.DeepFadeProb, m.DeepFadeMeanDB = maxSigma, deepProb, deepMean
		m.SensitivityDBm, m.MinRSSIDBm, m.MaxRSSIDBm = sens, minRSSI, maxRSSI
		if m.Validate() != nil || !(d >= 0) || math.IsInf(d, 1) || math.IsNaN(up) {
			return
		}
		ceil := m.MeanRSSI(d) + math.Abs(up)
		exact := sim.NewRNG(seed).Stream("rssi")
		gated := sim.NewRNG(seed).Stream("rssi")
		want := m.SampleRSSI(d, exact)
		got, ok := m.SampleRSSIAbove(d, ceil, m.SensitivityDBm, gated)
		if wantOK := !(want < m.SensitivityDBm); ok != wantOK {
			t.Fatalf("d=%v ceil=%v: above-floor = %v, SampleRSSI %v says %v", d, ceil, ok, want, wantOK)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%v ceil=%v: gated sample %v, SampleRSSI %v", d, ceil, got, want)
		}
		if !ok && got < want {
			t.Fatalf("d=%v ceil=%v: bound %v below the sample %v", d, ceil, got, want)
		}
		if a, b := exact.Float64(), gated.Float64(); a != b {
			t.Fatalf("d=%v: streams diverged after the sample (%v vs %v)", d, a, b)
		}
	})
}

// Below the floor, the ceiling decides without the exact mean: a ceiling
// that is far too low (violating the contract) shows the shortcut was
// taken, while the draws still match SampleRSSI's.
func TestSampleRSSIAboveShortCircuits(t *testing.T) {
	m := DefaultModel()
	a, b := sim.NewRNG(11).Stream("x"), sim.NewRNG(11).Stream("x")
	for i := 0; i < 200; i++ {
		m.SampleRSSI(100, a)
		if _, ok := m.SampleRSSIAbove(100, -1000, m.SensitivityDBm, b); ok {
			t.Fatal("a ceiling of -1000 dBm reached sensitivity")
		}
	}
	if a.Float64() != b.Float64() {
		t.Fatal("short-circuited samples drew differently from SampleRSSI")
	}
}

// randomModel draws a valid model around the default: path loss, reference
// distance, noise and clamp all vary.
func randomModel(rng *sim.RNG) Model {
	m := DefaultModel()
	m.TxPowerDBm = rng.Uniform(-20, 30)
	m.ReferenceDist = rng.Uniform(0.05, 5)
	m.PathLossExp = rng.Uniform(1.5, 6)
	m.ShadowSigmaDB = rng.Uniform(0, 8)
	m.MultipathSigmaDB = rng.Uniform(0, 8)
	m.DeepFadeProb = rng.Float64()
	m.MinRSSIDBm = rng.Uniform(-140, -80)
	m.MaxRSSIDBm = rng.Uniform(-60, 0)
	return m
}

// For random valid models, both rung widths in use (whole meters for the
// MAC, 1/16 m for calibration) must bracket MeanRSSI strictly at dense
// distances on every rung, rung edges included, below ReferenceDist, and
// past the last rung; the ceiling must agree with Bounds. Strictly, since
// the margin is what keeps the bracket from leaning on Log10 being
// monotone at ulp scale. A table capped at MaxMeanRungs must stay sound
// past its cap.
func TestMeanBoundsBracketMean(t *testing.T) {
	rng := sim.NewRNG(3).Stream("bounds")
	var b MeanBounds
	for trial := 0; trial < 40; trial++ {
		m := randomModel(rng)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ step, far float64 }{
			{1, rng.Uniform(50, 500)}, {1.0 / 16, rng.Uniform(20, 250)}, {1.0 / 16, 1e4},
		} {
			b.Init(&m, c.step, c.far)
			last := b.Rungs() - 1
			if want := math.Min(c.far/c.step+2, MaxMeanRungs); b.Rungs() != int(want) {
				t.Fatalf("far %v step %v: %d rungs, want %v", c.far, c.step, b.Rungs(), int(want))
			}
			check := func(d float64) {
				lo, hi := b.Bounds(d)
				// Past the last rung the floor is -Inf, and so may the mean be.
				if mean := m.MeanRSSI(d); !(lo < mean || math.IsInf(lo, -1)) || !(mean < hi) {
					t.Fatalf("trial %d step %v d=%v: MeanRSSI %v outside [%v, %v]", trial, c.step, d, mean, lo, hi)
				}
				if ceil := b.Ceil(d); ceil != hi {
					t.Fatalf("trial %d step %v d=%v: Ceil %v, Bounds ceiling %v", trial, c.step, d, ceil, hi)
				}
			}
			for k := 0; k <= last; k++ {
				for j := 0; j < 16; j++ {
					check((float64(k) + float64(j)/16) * c.step)
				}
				check(math.Nextafter(float64(k+1)*c.step, 0))
			}
			for _, d := range []float64{0, m.ReferenceDist / 3, math.Nextafter(m.ReferenceDist, 0), m.ReferenceDist} {
				check(d)
			}
			for _, d := range []float64{float64(last)*c.step + 0.01, 2 * float64(last) * c.step, 1e6, math.MaxFloat64} {
				check(d)
			}
			if lo, _ := b.Bounds(float64(last) * c.step); !math.IsInf(lo, -1) {
				t.Fatalf("step %v: open-ended last rung has floor %v", c.step, lo)
			}
		}
	}
}

// SampleRoundedRSSI must return SampleRSSI's sample rounded to whole dBm,
// bit for bit, and leave its stream where SampleRSSI leaves a twin, for
// random valid models and distances on and past the tabulated rungs.
func TestSampleRoundedRSSIMatchesSampleRSSI(t *testing.T) {
	rng := sim.NewRNG(4).Stream("models")
	var b MeanBounds
	for trial := 0; trial < 20; trial++ {
		m := randomModel(rng)
		b.Init(&m, 1.0/16, 200)
		exact := sim.NewRNG(int64(trial)).Stream("rssi")
		rounded := sim.NewRNG(int64(trial)).Stream("rssi")
		for i := 0; i < 2000; i++ {
			d := rng.Uniform(0, 260)
			want := math.Round(m.SampleRSSI(d, exact))
			if got := m.SampleRoundedRSSI(d, &b, rounded); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d d=%v: rounded sample %v, want %v", trial, d, got, want)
			}
		}
		if a, c := exact.Float64(), rounded.Float64(); a != c {
			t.Fatalf("trial %d: streams diverged (%v vs %v)", trial, a, c)
		}
	}
}
