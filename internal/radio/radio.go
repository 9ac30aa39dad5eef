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
// meanCeil must be at least MeanRSSI(d). The noise is drawn first and
// combined with meanCeil; since the combination and the clamp are monotone
// in the mean, a bound below floor proves the sample is too, and the
// path-loss logarithm is evaluated only for samples the bound cannot
// decide.
func (m *Model) SampleRSSIAbove(d, meanCeil, floor float64, rng *sim.RNG) (rssi float64, ok bool) {
	n := m.drawNoise(d, rng)
	if r := m.combine(meanCeil, n); r < floor {
		return r, false
	}
	r := m.combine(m.MeanRSSI(d), n)
	return r, !(r < floor)
}

// rssiNoise is the randomness of one RSSI sample, drawn before its mean is
// known.
type rssiNoise struct {
	z    float64 // standard-normal shadowing draw
	fade float64 // multipath fade depth (dB); zero within MultipathDist
	deep float64 // unit-exponential deep-fade draw; zero when none
}

// drawNoise makes the draws of one sample at distance d, the only draw
// sequence SampleRSSI and SampleRSSIAbove share: the shadowing normal,
// then past MultipathDist the fade normal, the deep-fade Bernoulli and, on
// a deep fade, its exponential.
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
