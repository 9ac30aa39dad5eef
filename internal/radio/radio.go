// Package radio models the 802.11b physical layer used by CoCoA: a
// log-distance path-loss channel with distance-dependent noise, RSSI
// reporting in dBm, receive sensitivity, and frame airtime at the paper's
// 2 Mbps rate.
//
// The model is calibrated to reproduce the structure the paper measured on
// its Orinoco WaveLAN testbed (Figure 1):
//
//   - signal strength down to about -80 dBm corresponds to physical
//     distances of up to ~40 m, and in that regime the distance PDF for a
//     given RSSI is well approximated by a Gaussian;
//   - beyond ~40 m multipath and fading dominate, the fluctuation grows,
//     and the distance PDF is no longer Gaussian;
//   - the usable transmission range exceeds 150 m.
//
// The path-loss logarithm dominates a sample's cost, so samplers that need
// only part of the answer bracket the mean instead: MeanBounds tabulates
// MeanRSSI on equal distance rungs, SampleRSSIAbove (the MAC's receiver
// sensitivity test) combines the noise with a rung's ceiling, and
// SampleRoundedRSSI (calibration's integer-dBm bins) with its floor and
// ceiling. Both make exactly SampleRSSI's draws, and their answers are
// those SampleRSSI's sample gives.
package radio

import (
	"fmt"
	"math"

	"cocoa/internal/sim"
)

// Model holds the channel parameters. Construct with DefaultModel and
// override fields as needed; the zero value is not usable.
type Model struct {
	// TxPowerDBm is the transmit power in dBm (WaveLAN-class: 15 dBm).
	TxPowerDBm float64
	// RefLossDB is the path loss at ReferenceDist meters.
	RefLossDB float64
	// ReferenceDist is the path-loss reference distance in meters.
	ReferenceDist float64
	// PathLossExp is the path-loss exponent (outdoor ground: ~3).
	PathLossExp float64
	// ShadowSigmaDB is the lognormal shadowing standard deviation (dB)
	// that applies symmetrically at all distances. Constructive
	// multipath gains are bounded by this term; destructive fades are
	// modeled separately because they can be much deeper.
	ShadowSigmaDB float64
	// MultipathDist is the distance (m) beyond which multipath fading
	// grows; the paper observed ~40 m.
	MultipathDist float64
	// MultipathSigmaDB is the per-MultipathDist growth slope (dB) of the
	// half-normal destructive fade component past MultipathDist.
	MultipathSigmaDB float64
	// MaxSigmaDB caps the fade component's standard deviation; real
	// channels do not fluctuate without bound.
	MaxSigmaDB float64
	// DeepFadeProb is the probability that a frame past MultipathDist
	// experiences an additional deep fade.
	DeepFadeProb float64
	// DeepFadeMeanDB is the mean depth (dB) of such a fade
	// (exponentially distributed).
	DeepFadeMeanDB float64
	// SensitivityDBm is the minimum RSSI at which a frame is decodable.
	SensitivityDBm float64
	// CaptureThresholdDB is the SIR margin required for the strongest of
	// overlapping frames to survive a collision.
	CaptureThresholdDB float64
	// BitrateBps is the channel bitrate (paper: 2 Mbps).
	BitrateBps float64
	// MinRSSIDBm / MaxRSSIDBm clamp reported RSSI to the ADC range of the
	// card, and bound the calibration table domain.
	MinRSSIDBm float64
	MaxRSSIDBm float64
}

// DefaultModel returns the channel calibrated against the paper's
// observations: RSSI(-52 dBm) at roughly 5 m, RSSI(-80 dBm) at roughly
// 40 m, and a decodable range of about 160 m.
func DefaultModel() Model {
	return Model{
		TxPowerDBm:         15,
		RefLossDB:          46.9,
		ReferenceDist:      1,
		PathLossExp:        3.0,
		ShadowSigmaDB:      3.0,
		MultipathDist:      40,
		MultipathSigmaDB:   4.0,
		MaxSigmaDB:         12.0,
		DeepFadeProb:       0.3,
		DeepFadeMeanDB:     6.0,
		SensitivityDBm:     -98,
		CaptureThresholdDB: 10,
		BitrateBps:         2e6,
		MinRSSIDBm:         -100,
		MaxRSSIDBm:         -30,
	}
}

// maxRSSISpanDB caps the card's RSSI reporting range, MaxRSSIDBm -
// MinRSSIDBm; the default range is 70 dB.
const maxRSSISpanDB = 1000

// Validate reports whether the model parameters are physically sensible.
func (m Model) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"TxPowerDBm", m.TxPowerDBm}, {"RefLossDB", m.RefLossDB},
		{"ReferenceDist", m.ReferenceDist}, {"PathLossExp", m.PathLossExp},
		{"ShadowSigmaDB", m.ShadowSigmaDB}, {"MultipathDist", m.MultipathDist},
		{"MultipathSigmaDB", m.MultipathSigmaDB}, {"MaxSigmaDB", m.MaxSigmaDB},
		{"DeepFadeProb", m.DeepFadeProb}, {"DeepFadeMeanDB", m.DeepFadeMeanDB},
		{"SensitivityDBm", m.SensitivityDBm}, {"CaptureThresholdDB", m.CaptureThresholdDB},
		{"BitrateBps", m.BitrateBps}, {"MinRSSIDBm", m.MinRSSIDBm},
		{"MaxRSSIDBm", m.MaxRSSIDBm},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("radio: %s %v must be finite", f.name, f.v)
		}
	}
	switch {
	case m.ReferenceDist <= 0:
		return fmt.Errorf("radio: ReferenceDist %v must be positive", m.ReferenceDist)
	case m.PathLossExp <= 0:
		return fmt.Errorf("radio: PathLossExp %v must be positive", m.PathLossExp)
	case m.BitrateBps <= 0:
		return fmt.Errorf("radio: BitrateBps %v must be positive", m.BitrateBps)
	case m.ShadowSigmaDB < 0 || m.MultipathSigmaDB < 0 || m.MaxSigmaDB < 0:
		return fmt.Errorf("radio: noise sigmas must be non-negative")
	case m.MultipathDist <= 0:
		// FadeSigma divides by it.
		return fmt.Errorf("radio: MultipathDist %v must be positive", m.MultipathDist)
	case m.DeepFadeProb < 0 || m.DeepFadeProb > 1:
		return fmt.Errorf("radio: DeepFadeProb %v out of [0,1]", m.DeepFadeProb)
	case m.DeepFadeMeanDB < 0:
		// A negative depth would raise RSSI past MaxPlausibleRSSI.
		return fmt.Errorf("radio: DeepFadeMeanDB %v must be non-negative", m.DeepFadeMeanDB)
	case m.MinRSSIDBm >= m.MaxRSSIDBm:
		return fmt.Errorf("radio: RSSI clamp range inverted")
	case m.MaxRSSIDBm-m.MinRSSIDBm > maxRSSISpanDB:
		// Calibration keeps one PDF slot per dBm of the range.
		return fmt.Errorf("radio: RSSI clamp range %v dB wider than %v dB", m.MaxRSSIDBm-m.MinRSSIDBm, maxRSSISpanDB)
	}
	return nil
}

// MeanRSSI returns the deterministic (noise-free) received signal strength
// in dBm at distance d meters. Distances below the reference distance clamp
// to the reference.
func (m *Model) MeanRSSI(d float64) float64 {
	if d < m.ReferenceDist {
		d = m.ReferenceDist
	}
	return m.TxPowerDBm - m.RefLossDB - 10*m.PathLossExp*math.Log10(d/m.ReferenceDist)
}

// FadeSigma returns the standard deviation in dB of the half-normal
// destructive multipath fade at distance d. It is zero up to MultipathDist
// and grows linearly beyond (capped at MaxSigmaDB), reflecting Figure 1's
// two regimes: Gaussian behaviour near, fade-dominated behaviour far.
func (m *Model) FadeSigma(d float64) float64 {
	if d <= m.MultipathDist {
		return 0
	}
	sigma := m.MultipathSigmaDB * (d - m.MultipathDist) / m.MultipathDist
	if m.MaxSigmaDB > 0 && sigma > m.MaxSigmaDB {
		return m.MaxSigmaDB
	}
	return sigma
}

// SampleRSSI returns one noisy RSSI observation (dBm) at distance d:
// symmetric lognormal shadowing at all distances, plus — past
// MultipathDist — a downward-only half-normal fade and occasional deep
// fades. The asymmetry is physical: constructive multipath gains are
// small, destructive fades are deep, and it is exactly what destroys the
// Gaussian shape of the distance PDF for weak signals (Figure 1(b)).
// The result is clamped to the card's reporting range.
func (m *Model) SampleRSSI(d float64, rng *sim.RNG) float64 {
	return m.combine(m.MeanRSSI(d), m.drawNoise(d, rng))
}

// SampleRSSIAbove is SampleRSSI for a caller that only wants samples at or
// above floor. It makes exactly SampleRSSI's draws, so rng ends at the same
// position, and ok is false exactly when SampleRSSI would return a value
// below floor; when ok is true the value is SampleRSSI's, bit for bit. When
// ok is false the value is only an upper bound on the sample.
//
// meanCeil must be at least MeanRSSI(d); MeanBounds.Ceil is such a bound.
// The noise is drawn first and combined with meanCeil; since the
// combination and the clamp are monotone in the mean, a bound below floor
// proves the sample is too, and the path-loss logarithm is evaluated only
// for samples the bound cannot decide.
func (m *Model) SampleRSSIAbove(d, meanCeil, floor float64, rng *sim.RNG) (rssi float64, ok bool) {
	n := m.drawNoise(d, rng)
	if r := m.combine(meanCeil, n); r < floor {
		return r, false
	}
	r := m.combine(m.MeanRSSI(d), n)
	return r, !(r < floor)
}

// SampleRoundedRSSI returns math.Round(SampleRSSI(d, rng)), bit for bit,
// after exactly SampleRSSI's draws: the integer dBm a card reports. b must
// have been built from this model (see MeanBounds.Init).
//
// The noise is drawn first and combined with the floor and the ceiling of
// the mean on d's rung; since the combination, the clamp and the rounding
// are monotone in the mean, two bounds that round alike fix the sample's
// value, and the path-loss logarithm is evaluated only when they straddle
// a rounding boundary.
func (m *Model) SampleRoundedRSSI(d float64, b *MeanBounds, rng *sim.RNG) float64 {
	n := m.drawNoise(d, rng)
	lo, hi := b.Bounds(d)
	if r := math.Round(m.combine(hi, n)); r == math.Round(m.combine(lo, n)) {
		return r
	}
	return math.Round(m.combine(m.MeanRSSI(d), n))
}

// MeanBounds tabulates MeanRSSI at the edges of equal-width distance rungs
// so a sampler can bracket the mean without the path-loss logarithm: the
// MAC bounds samples against receiver sensitivity on whole-meter rungs,
// calibration decides each sounding's RSSI bin on 1/16 m rungs. Rung k
// covers [k·step, (k+1)·step); the last rung is open-ended and covers every
// larger distance. The zero value is empty; Init fills it.
type MeanBounds struct {
	perM float64   // 1/step: rungs per meter
	edge []float64 // edge[k] = MeanRSSI(k·step); MeanRSSI is non-increasing
}

// Rung table bounds: boundMarginDB widens every bound past the exact mean
// so the bracket does not lean on Log10 being monotone at ulp scale, and
// MaxMeanRungs caps the table for far or unbounded horizons (the last,
// open-ended rung then covers the rest).
const (
	boundMarginDB = 1e-9
	MaxMeanRungs  = 4096
)

// Init tabulates m's mean on rungs of width step (a power of two, so rung
// edges and the rung index of a distance are exact) out to at least far,
// at most MaxMeanRungs rungs. It reuses b's storage when it is large
// enough.
func (b *MeanBounds) Init(m *Model, step, far float64) {
	n := MaxMeanRungs
	if u := far / step; u < MaxMeanRungs-1 {
		n = int(u) + 2
	}
	e := b.edge[:0]
	if cap(e) < n {
		e = make([]float64, n)
	}
	e = e[:n]
	for k := range e {
		e[k] = m.MeanRSSI(float64(k) * step)
	}
	b.perM, b.edge = 1/step, e
}

// Rungs returns the number of rungs, the open-ended last one included.
func (b *MeanBounds) Rungs() int { return len(b.edge) }

// Ceil returns an upper bound on MeanRSSI(d) for d >= 0: the mean at the
// near edge of d's rung plus the margin.
func (b *MeanBounds) Ceil(d float64) float64 {
	last := len(b.edge) - 1
	if u := d * b.perM; u < float64(last) {
		return b.edge[int(u)] + boundMarginDB
	}
	return b.edge[last] + boundMarginDB
}

// Bounds returns a floor and a ceiling on MeanRSSI(d) for d >= 0: the
// means at the far and near edges of d's rung, widened by the margin. On
// the open-ended last rung the floor is -Inf.
func (b *MeanBounds) Bounds(d float64) (floor, ceil float64) {
	last := len(b.edge) - 1
	if u := d * b.perM; u < float64(last) {
		k := int(u)
		return b.edge[k+1] - boundMarginDB, b.edge[k] + boundMarginDB
	}
	return math.Inf(-1), b.edge[last] + boundMarginDB
}

// rssiNoise is the randomness of one RSSI sample, drawn before its mean is
// known.
type rssiNoise struct {
	z    float64 // standard-normal shadowing draw
	fade float64 // multipath fade depth (dB); zero within MultipathDist
	deep float64 // unit-exponential deep-fade draw; zero when none
}

// drawNoise makes the draws of one sample at distance d, the only draw
// sequence SampleRSSI, SampleRSSIAbove and SampleRoundedRSSI share: the
// shadowing normal, then past MultipathDist the fade normal, the deep-fade
// Bernoulli and, on a deep fade, its exponential.
func (m *Model) drawNoise(d float64, rng *sim.RNG) (n rssiNoise) {
	n.z = rng.StdNormal()
	if fs := m.FadeSigma(d); fs > 0 {
		n.fade = math.Abs(rng.Normal(0, fs))
		if rng.Bool(m.DeepFadeProb) {
			n.deep = rng.Exp(1)
		}
	}
	return n
}

// combine turns drawn noise into a clamped RSSI around mean. mean +
// σ·z is one expression, as in sim.RNG.Normal, and so is the deep-fade
// product with its subtraction, as in sim.RNG.Exp inlined: any fused
// multiply-add the compiler forms rounds here as it does there. Every step
// is monotone non-decreasing in mean.
func (m *Model) combine(mean float64, n rssiNoise) float64 {
	r := mean + m.ShadowSigmaDB*n.z
	r -= n.fade
	if n.deep != 0 {
		r -= n.deep * m.DeepFadeMeanDB
	}
	return m.ClampRSSI(r)
}

// MaxPlausibleRSSI returns an upper envelope on any sampled RSSI at
// distance d (mean plus five shadowing sigmas); the MAC uses it as a hard
// out-of-range cutoff.
func (m *Model) MaxPlausibleRSSI(d float64) float64 {
	return m.MeanRSSI(d) + 5*m.ShadowSigmaDB
}

// ClampRSSI clamps an RSSI value to the card's reporting range. The manual
// compares keep NaN propagation identical to the math.Min(math.Max(...))
// they replace (a NaN fails both compares and passes through) while
// avoiding two function calls on the MAC's per-reception path.
func (m *Model) ClampRSSI(r float64) float64 {
	if r < m.MinRSSIDBm {
		return m.MinRSSIDBm
	}
	if r > m.MaxRSSIDBm {
		return m.MaxRSSIDBm
	}
	return r
}

// Decodable reports whether a frame received at the given RSSI is above the
// receiver sensitivity.
func (m Model) Decodable(rssiDBm float64) bool { return rssiDBm >= m.SensitivityDBm }

// MeanRange returns the distance at which the mean RSSI reaches the
// receiver sensitivity: the nominal transmission range.
func (m Model) MeanRange() float64 {
	return m.DistanceForRSSI(m.SensitivityDBm)
}

// DistanceForRSSI inverts the noise-free path-loss curve: it returns the
// distance at which MeanRSSI equals the given value.
func (m Model) DistanceForRSSI(rssiDBm float64) float64 {
	exp := (m.TxPowerDBm - m.RefLossDB - rssiDBm) / (10 * m.PathLossExp)
	return m.ReferenceDist * math.Pow(10, exp)
}

// Airtime returns the seconds needed to transmit a frame of the given total
// size (bytes) at the model bitrate.
func (m Model) Airtime(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / m.BitrateBps)
}

// PropagationDelay returns the speed-of-light delay over d meters. It is
// negligible at robot-team scales but kept for event-ordering fidelity.
func PropagationDelay(d float64) sim.Time {
	const c = 299792458.0
	return sim.Time(d / c)
}
