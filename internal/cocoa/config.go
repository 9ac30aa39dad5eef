// Package cocoa implements the CoCoA system itself: the coordinated
// cooperative localization architecture of the paper. It assembles the
// substrates (simulator, radio, MAC, NIC, mobility, odometry, calibration,
// Bayesian grid, MRMM) into a robot team that follows the paper's
// timeline:
//
//   - time is divided into beacon periods T with a transmit window t at the
//     start of each;
//   - robots with localization devices broadcast k RF beacons carrying
//     their coordinates during each window;
//   - robots without devices localize from the beacons with Bayesian
//     inference, then dead-reckon with odometry until the next window;
//   - a designated Sync robot disseminates SYNC messages over the MRMM
//     mesh at the start of every period, and — when coordination is
//     enabled — every robot sleeps its radio between windows.
package cocoa

import (
	"errors"
	"fmt"
	"math"

	"cocoa/internal/caltable"
	"cocoa/internal/energy"
	"cocoa/internal/faults"
	"cocoa/internal/geom"
	"cocoa/internal/mobility"
	"cocoa/internal/mrmm"
	"cocoa/internal/obs"
	"cocoa/internal/odometry"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// Mode selects the localization strategy, matching the paper's three
// evaluated approaches.
type Mode int

// Localization modes.
const (
	// ModeOdometryOnly: robots know their initial position and rely on
	// dead reckoning only (Section 4.1).
	ModeOdometryOnly Mode = iota + 1
	// ModeRFOnly: robots localize from beacons only; estimates stay
	// frozen between transmit windows (Section 4.2).
	ModeRFOnly
	// ModeCombined is CoCoA: RF fixes at each window, odometry in
	// between (Section 4.3).
	ModeCombined
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOdometryOnly:
		return "odometry-only"
	case ModeRFOnly:
		return "rf-only"
	case ModeCombined:
		return "cocoa"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// LocalizerKind selects the RF position-estimation backend.
type LocalizerKind int

// Localization backends.
const (
	// LocalizerGrid is the paper's technique: Bayesian inference on a
	// discretized position grid (Sichitiu & Ramadurai).
	LocalizerGrid LocalizerKind = iota + 1
	// LocalizerParticle is Monte Carlo localization, demonstrating the
	// paper's claim that other techniques integrate into CoCoA.
	LocalizerParticle
	// LocalizerEKF is an extended Kalman filter over calibrated range
	// measurements (the related work's Kalman family).
	LocalizerEKF
)

// String implements fmt.Stringer.
func (k LocalizerKind) String() string {
	switch k {
	case LocalizerGrid:
		return "grid"
	case LocalizerParticle:
		return "particle"
	case LocalizerEKF:
		return "ekf"
	default:
		return fmt.Sprintf("LocalizerKind(%d)", int(k))
	}
}

// Config describes one simulated deployment. DefaultConfig reproduces the
// paper's Section 4 setup.
type Config struct {
	// NumRobots is the team size (paper: 50).
	NumRobots int
	// NumEquipped is how many robots carry localization devices
	// (paper default: half).
	NumEquipped int
	// Area is the deployment area (paper: 40000 m^2).
	Area geom.Rect
	// VMax is the maximum robot speed in m/s (paper: 0.5 or 2.0).
	VMax float64

	// BeaconPeriodS is T, the beacon period in seconds.
	BeaconPeriodS sim.Time
	// TransmitPeriodS is t, the transmit window (paper: 3 s).
	TransmitPeriodS sim.Time
	// BeaconsPerWindow is k, the per-window beacon redundancy (paper: 3).
	BeaconsPerWindow int

	// GridCellM is the Bayesian grid resolution in meters.
	GridCellM float64
	// Localizer selects the RF estimation backend; the zero value means
	// LocalizerGrid (the paper's technique).
	Localizer LocalizerKind
	// Particles sizes the Monte Carlo backend (ignored by the grid).
	Particles int

	// Mode selects odometry-only / RF-only / CoCoA.
	Mode Mode
	// Coordinated controls whether radios sleep between windows. With
	// false the radios idle instead — the paper's "without coordination"
	// energy baseline.
	Coordinated bool
	// SecondaryBeacons enables the paper's future-work extension:
	// unequipped robots that have localized also beacon, advertising
	// their estimated coordinates.
	SecondaryBeacons bool

	// DurationS is the simulated time (paper: 30 minutes).
	DurationS sim.Time
	// SampleIntervalS is the metric sampling cadence (paper plots per
	// second).
	SampleIntervalS sim.Time

	// Seed makes the run reproducible.
	Seed int64

	// Radio, Energy, Odometry and Calibration override the substrate
	// models; zero values select the defaults.
	Radio       radio.Model
	Energy      energy.Params
	Odometry    odometry.Config
	Calibration caltable.Options

	// RestMinS and RestMaxS optionally add task pauses at waypoints.
	RestMinS sim.Time
	RestMaxS sim.Time

	// ClockDriftSigmaS models the robots' imperfect clocks: each robot's
	// timer error grows by N(0, sigma) per beacon period unless a SYNC
	// message resynchronizes it. Zero (the default) models perfect
	// coarse synchronization.
	ClockDriftSigmaS float64
	// DisableSync removes the SYNC dissemination: robots rely on a
	// preprogrammed schedule instead. Combined with ClockDriftSigmaS this
	// quantifies why CoCoA's MRMM-based synchronization exists.
	DisableSync bool

	// FailEquippedCount robots with localization devices die (power off,
	// stop moving) at FailAtS — failure injection for the paper's
	// disaster scenarios. The Sync robot never fails.
	FailEquippedCount int
	FailAtS           sim.Time

	// TerrainAmplitude models uneven ground (paper introduction): the
	// worst patches multiply odometry noise by 1+TerrainAmplitude. Zero
	// (default) is smooth ground. TerrainCellM is the feature size.
	TerrainAmplitude float64
	TerrainCellM     float64

	// EnableReporting turns on the paper-conclusion data path: during
	// each transmit window the robots exchange geographic HELLOs and
	// every localized unequipped robot unicasts a status report toward
	// the Sync robot ("the controller") by greedy geographic forwarding
	// over CoCoA coordinates.
	EnableReporting bool

	// MRMMPruning toggles MRMM's mobility-aware mesh pruning (false
	// degrades SYNC dissemination to plain ODMRP) for the ablation.
	MRMMPruning bool

	// UpdateWorkers bounds the worker pool that fans per-robot grid
	// updates within a single run. Per-robot localizer state is disjoint
	// and each robot's queued beacons are applied in arrival order by one
	// goroutine, so results are byte-identical at any worker count. 0 (the
	// default) sizes the pool to GOMAXPROCS; 1 forces serial application.
	UpdateWorkers int

	// Checkpoint enables mid-run snapshotting: after every EveryTicks-th
	// sampling tick the run's state is captured and atomically written to
	// Dir/latest.ckpt, ready for ResumeFrom. The zero value disables
	// snapshotting entirely. The field is excluded from JSON — and hence
	// from Result bytes and from the config embedded in snapshots —
	// because checkpoint placement is an operational property of the
	// process running the simulation, not of the experiment: two runs
	// differing only here are byte-identical (see DESIGN.md §14).
	Checkpoint CheckpointSpec `json:"-"`

	// Progress, when non-nil, receives the run's live position: the
	// simulation loop publishes (sampling tick, total ticks) through one
	// atomic store per tick. Like Checkpoint it is excluded from JSON —
	// it describes how the hosting process watches the run, not the
	// experiment — and it is strictly write-only for the simulation, so
	// runs with and without it are byte-identical (DESIGN.md §15).
	Progress *obs.Progress `json:"-"`

	// Trace, when non-nil, records the run's span timeline (run →
	// sampling-window → {mac-frame, belief-update, checkpoint}) on the
	// simulation's virtual clock for export as Chrome trace-event JSON.
	// Excluded from JSON for the same reason as Progress; the recorder is
	// append-only and nothing in the run reads it back, so tracing never
	// steers results (DESIGN.md §15).
	Trace *obs.Trace `json:"-"`

	// Faults injects unreliable-network conditions: bursty link loss,
	// robot crash/recovery outages, RSSI outlier spikes, and per-robot
	// clock skew. The zero value (the default) injects nothing and leaves
	// every RNG stream untouched, so fault-free runs are byte-identical
	// to configurations predating the faults layer. Faults apply to the
	// RF modes only; odometry-only robots have no radio to degrade.
	Faults faults.Config
}

// DefaultConfig returns the paper's evaluation setup: 50 robots in a
// 200 m x 200 m area, half equipped, T = 100 s, t = 3 s, k = 3, 30-minute
// runs, coordinated sleeping, CoCoA mode.
func DefaultConfig() Config {
	return Config{
		NumRobots:        50,
		NumEquipped:      25,
		Area:             geom.Square(200),
		VMax:             2.0,
		BeaconPeriodS:    100,
		TransmitPeriodS:  3,
		BeaconsPerWindow: 3,
		GridCellM:        2,
		Localizer:        LocalizerGrid,
		Particles:        2000,
		Mode:             ModeCombined,
		Coordinated:      true,
		DurationS:        1800,
		SampleIntervalS:  1,
		Seed:             1,
		Radio:            radio.DefaultModel(),
		Energy:           energy.DefaultParams(),
		Odometry:         odometry.DefaultConfig(),
		Calibration:      caltable.DefaultOptions(),
		TerrainCellM:     25,
		MRMMPruning:      true,
	}
}

// ErrInvalidConfig is the sentinel every configuration-validation failure
// wraps: errors.Is(err, ErrInvalidConfig) classifies an error as a caller
// mistake (an HTTP 400, not a 500) without string matching. The concrete
// detail travels in the *ConfigError it is wrapped by.
var ErrInvalidConfig = errors.New("cocoa: invalid config")

// ConfigError reports which Config field failed validation and why. It
// wraps ErrInvalidConfig, so both errors.Is(err, ErrInvalidConfig) and
// errors.As(err, &cfgErr) work on anything Validate returns.
type ConfigError struct {
	// Field is the offending Config field, e.g. "NumRobots" or
	// "Radio" for a substrate model that failed its own validation.
	Field string
	// Reason is the human-readable explanation.
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("cocoa: invalid config: %s: %s", e.Field, e.Reason)
}

// Unwrap ties every ConfigError to the ErrInvalidConfig sentinel.
func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// configErrorf builds a *ConfigError with a formatted reason.
func configErrorf(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// Validate reports whether the configuration is usable. Every failure is a
// *ConfigError wrapping ErrInvalidConfig.
func (c Config) Validate() error {
	switch {
	case c.NumRobots <= 0:
		return configErrorf("NumRobots", "must be positive")
	case c.NumEquipped < 0 || c.NumEquipped > c.NumRobots:
		return configErrorf("NumEquipped", "%d out of [0, %d]", c.NumEquipped, c.NumRobots)
	case c.Mode != ModeOdometryOnly && c.NumEquipped == 0:
		return configErrorf("NumEquipped", "RF localization needs at least one equipped robot")
	case c.Mode != ModeOdometryOnly && c.NumEquipped == c.NumRobots:
		return configErrorf("NumEquipped", "RF localization needs at least one unequipped robot to localize")
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return configErrorf("Area", "degenerate area")
	case !finite(c.Area.Width()) || !finite(c.Area.Height()):
		return configErrorf("Area", "%v x %v m is not finite", c.Area.Width(), c.Area.Height())
	case c.VMax <= 0.1:
		return configErrorf("VMax", "%v must exceed the paper's 0.1 m/s floor", c.VMax)
	case c.BeaconPeriodS <= 0:
		return configErrorf("BeaconPeriodS", "must be positive")
	case c.TransmitPeriodS <= 0 || c.TransmitPeriodS >= c.BeaconPeriodS:
		return configErrorf("TransmitPeriodS", "must be in (0, T)")
	case c.BeaconsPerWindow <= 0:
		return configErrorf("BeaconsPerWindow", "must be positive")
	case c.GridCellM <= 0:
		return configErrorf("GridCellM", "must be positive")
	case c.Localizer != 0 && (c.Localizer < LocalizerGrid || c.Localizer > LocalizerEKF):
		return configErrorf("Localizer", "invalid localizer %d", int(c.Localizer))
	case c.Localizer == LocalizerParticle && c.Particles <= 0:
		return configErrorf("Particles", "must be positive for the particle backend")
	case c.Mode < ModeOdometryOnly || c.Mode > ModeCombined:
		return configErrorf("Mode", "invalid mode %d", int(c.Mode))
	case c.DurationS <= 0:
		return configErrorf("DurationS", "must be positive")
	case c.SampleIntervalS <= 0:
		return configErrorf("SampleIntervalS", "must be positive")
	case c.ClockDriftSigmaS < 0:
		return configErrorf("ClockDriftSigmaS", "negative clock drift")
	case c.FailEquippedCount < 0 || c.FailEquippedCount >= c.NumEquipped && c.FailEquippedCount > 0:
		return configErrorf("FailEquippedCount", "%d must leave the Sync robot alive", c.FailEquippedCount)
	case c.FailAtS < 0:
		return configErrorf("FailAtS", "negative FailAtS")
	case c.TerrainAmplitude < 0:
		return configErrorf("TerrainAmplitude", "negative TerrainAmplitude")
	case c.TerrainAmplitude > 0 && c.TerrainCellM <= 0:
		return configErrorf("TerrainCellM", "must be positive with terrain enabled")
	case c.UpdateWorkers < 0:
		return configErrorf("UpdateWorkers", "negative UpdateWorkers")
	case c.Checkpoint.EveryTicks < 0:
		return configErrorf("Checkpoint", "negative EveryTicks")
	case c.Checkpoint.EveryTicks > 0 && c.Checkpoint.Dir == "":
		return configErrorf("Checkpoint", "EveryTicks set without Dir")
	}
	if err := c.Radio.Validate(); err != nil {
		return &ConfigError{Field: "Radio", Reason: err.Error()}
	}
	if err := c.Energy.Validate(); err != nil {
		return &ConfigError{Field: "Energy", Reason: err.Error()}
	}
	if err := c.Odometry.Validate(); err != nil {
		return &ConfigError{Field: "Odometry", Reason: err.Error()}
	}
	if c.Mode != ModeOdometryOnly {
		if err := c.Calibration.Validate(); err != nil {
			return &ConfigError{Field: "Calibration", Reason: err.Error()}
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return &ConfigError{Field: "Faults", Reason: err.Error()}
	}
	return nil
}

// mobilityConfig derives the waypoint model configuration.
func (c Config) mobilityConfig() mobility.Config {
	return mobility.Config{
		Area:    c.Area,
		VMin:    0.1,
		VMax:    c.VMax,
		RestMin: c.RestMinS,
		RestMax: c.RestMaxS,
	}
}

// mrmmConfig derives the MRMM configuration.
func (c Config) mrmmConfig() mrmm.Config {
	mc := mrmm.DefaultConfig(c.Radio.MeanRange())
	mc.UsePruning = c.MRMMPruning
	// Keep forwarding-group state alive across beacon periods so the
	// mesh survives the sleep phase.
	mc.FGTimeoutS = 3 * c.BeaconPeriodS
	return mc
}
