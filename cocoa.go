// Package cocoa is the public API of the CoCoA reproduction: Coordinated
// Cooperative Ad-Hoc localization for mobile multi-robot networks
// (Koutsonikolas, Das, Hu, Lu, Lee — ICDCS 2006).
//
// CoCoA equips only a subset of a robot team with localization devices;
// those robots broadcast RF beacons carrying their coordinates while the
// rest localize themselves with Bayesian inference over RSSI-calibrated
// distance PDFs, dead-reckoning with odometry between beacon rounds. A
// multicast-coordinated sleep schedule keeps the radios off between
// transmit windows, which is where the energy savings come from.
//
// Quick start:
//
//	cfg := cocoa.DefaultConfig()
//	cfg.DurationS = 600
//	res, err := cocoa.Run(cfg)
//	// res.AvgError is the localization-error time series;
//	// res.EnergySavings() is the coordination payoff.
//
// Experiments returns the registry of runners that regenerate every table
// and figure of the paper's evaluation; see EXPERIMENTS.md.
package cocoa

import (
	"context"
	"io"

	"cocoa/internal/caltable"
	icocoa "cocoa/internal/cocoa"
	"cocoa/internal/energy"
	"cocoa/internal/faults"
	"cocoa/internal/geom"
	"cocoa/internal/georouting"
	"cocoa/internal/mobility"
	"cocoa/internal/obs"
	"cocoa/internal/odometry"
	"cocoa/internal/radio"
	"cocoa/internal/runner"
	"cocoa/internal/scenario"
)

// Core types: the deployment configuration, the assembled team, and the
// run result.
type (
	// Config describes one simulated deployment; see DefaultConfig.
	Config = icocoa.Config
	// Mode selects odometry-only, RF-only, or combined localization.
	Mode = icocoa.Mode
	// Team is an assembled deployment ready to Run.
	Team = icocoa.Team
	// Result carries error time series, energy ledger, and protocol
	// counters of one run.
	Result = icocoa.Result
	// BeaconPayload is the on-air beacon content.
	BeaconPayload = icocoa.BeaconPayload
	// SyncPayload is the SYNC message disseminated over MRMM.
	SyncPayload = icocoa.SyncPayload
)

// Substrate configuration types, exposed so callers can tune the models.
type (
	// Vec2 is a 2D point in meters.
	Vec2 = geom.Vec2
	// Rect is an axis-aligned deployment area.
	Rect = geom.Rect
	// RadioModel parameterizes the 802.11b channel.
	RadioModel = radio.Model
	// EnergyParams holds the per-state radio power draw.
	EnergyParams = energy.Params
	// OdometryConfig holds the dead-reckoning error model.
	OdometryConfig = odometry.Config
	// CalibrationOptions controls the offline PDF-table construction.
	CalibrationOptions = caltable.Options
	// MobilityConfig parameterizes the random-waypoint movement model.
	MobilityConfig = mobility.Config
)

// Localization modes (the paper's three evaluated approaches).
const (
	ModeOdometryOnly = icocoa.ModeOdometryOnly
	ModeRFOnly       = icocoa.ModeRFOnly
	ModeCombined     = icocoa.ModeCombined
)

// DefaultConfig returns the paper's Section 4 evaluation setup: 50 robots
// in a 200 m x 200 m area, half equipped, T = 100 s, t = 3 s, k = 3,
// 30-minute runs, coordinated sleeping.
func DefaultConfig() Config { return icocoa.DefaultConfig() }

// NewTeam assembles a deployment (including the offline calibration
// phase) on a run slot from the free list RunContext draws from; running
// the team parks the slot again. The team's Telemetry and Table stay
// readable after the run however many runs reuse the slot.
func NewTeam(cfg Config) (*Team, error) { return icocoa.NewTeam(cfg) }

// Run assembles and runs a deployment in one call. It is RunContext with
// context.Background(): use RunContext when the caller needs deadlines or
// cancellation.
func Run(cfg Config) (*Result, error) { return icocoa.Run(cfg) }

// RunContext assembles and runs a deployment under ctx. Cancellation is
// cooperative: the simulation observes ctx at every sampling tick, stops,
// and returns ctx's error with a nil Result. The context only gates
// execution — it never feeds the simulation's randomness or event order —
// so a run that completes is byte-identical to Run(cfg) whether ctx
// carried a live deadline or not. A nil ctx means context.Background().
//
// Back-to-back runs recycle each other's simulator, RNG streams, MAC
// medium, robots and belief grids through a small process-wide free list,
// with byte-identical results; see ReleaseResult to recycle a finished
// Result's buffers too.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return icocoa.RunContext(ctx, cfg)
}

// ReleaseResult hands a Result's buffers back for reuse by a later run.
// Call it at most once per Result, and only once nothing will read it
// again: a later run overwrites it in place. Releasing is optional.
func ReleaseResult(res *Result) { icocoa.ReleaseResult(res) }

// Observability: a run with Config.Progress set publishes its live tick
// position through a lock-free gauge, and one with Config.Observer set
// hands every run event (window start/end, beacon sent, fix, sleep/wake,
// faults) to that function in virtual-time order — the one event stream
// behind cocoasim's -events log and the span traces of cocoasim
// -trace-out and cocoad, rendered as Chrome trace-event JSON (load it in
// Perfetto). Both record, never steer — results are byte-identical with
// either attached or not. See DESIGN.md §15.
type (
	// Progress is the lock-free live-position gauge (Config.Progress,
	// ExperimentOptions.Gauge): current sampling tick, sweep run index,
	// and a wall-clock ETA derived at read time.
	Progress = obs.Progress
	// TraceEvent is one record of an exported trace.
	TraceEvent = obs.TraceEvent
)

// ReadTrace strictly decodes a run's span trace (Chrome trace-event JSON),
// verifying phases and begin/end span balance.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadTrace(r) }

// Config validation errors. Validate (and therefore NewTeam, Run,
// RunContext) reports configuration problems as a *ConfigError wrapping
// ErrInvalidConfig, so callers can branch with errors.Is and recover the
// offending field with errors.As — an HTTP service maps them to 400s.
var ErrInvalidConfig = icocoa.ErrInvalidConfig

// ConfigError identifies the Config field that failed validation and why.
type ConfigError = icocoa.ConfigError

// Square returns a side x side deployment area anchored at the origin.
func Square(side float64) Rect { return geom.Square(side) }

// Experiment runner re-exports: everything cmd/cocoaexp uses to regenerate
// the paper's figures, available to library users as well.
type (
	// ExperimentOptions scales a figure run without changing its shape.
	ExperimentOptions = scenario.Options
	// Series is one labeled curve of a figure.
	Series = scenario.Series
	// Fig1Result holds the two calibration PDFs of Figure 1.
	Fig1Result = scenario.Fig1Result
	// Fig5Result holds the true-vs-odometry path pair of Figure 5.
	Fig5Result = scenario.Fig5Result
	// Fig7Result compares the three approaches at one speed.
	Fig7Result = scenario.Fig7Result
	// CDFSnapshot is one Figure 8 CDF.
	CDFSnapshot = scenario.CDFSnapshot
	// Fig9Row is one beacon-period outcome of Figure 9.
	Fig9Row = scenario.Fig9Row
	// Fig10Row is one equipped-count outcome of Figure 10.
	Fig10Row = scenario.Fig10Row
)

// ExperimentDescriptor is one registered experiment: a unique name, the
// CLI selector group it answers to, a section title, the runner, and the
// renderer of its results. Run returns the experiment's concrete result
// type (e.g. []Fig9Row for "fig9"); Render prints such a value as
// cocoaexp does and fails for a value of any other type.
type ExperimentDescriptor = scenario.Descriptor

// Experiments returns every registered experiment in presentation order.
// cmd/cocoaexp drives its dispatch from this list; library users can
// iterate it to regenerate the full suite programmatically.
func Experiments() []ExperimentDescriptor { return scenario.Experiments() }

// MaxParallelism reports the engine's all-CPUs parallelism level
// (GOMAXPROCS). ExperimentOptions.Parallelism set to this value saturates
// the host; results are byte-identical at any parallelism.
func MaxParallelism() int { return runner.MaxParallelism() }

// ExperimentBeaconSweep is the paper's beacon-period sweep (Figures 6, 9).
func ExperimentBeaconSweep() []float64 { return scenario.BeaconPeriods() }

// ExperimentDeviceCounts is the paper's equipped-count sweep (Figure 10).
func ExperimentDeviceCounts() []int { return scenario.EquippedCounts() }

// SteadyStateMean averages a curve past the warm-up prefix.
func SteadyStateMean(s Series, warmupS float64) float64 {
	return scenario.SteadyStateMean(s, warmupS)
}

// Extension and ablation rows (DESIGN.md Section 5).
type (
	// ExtensionRow compares CoCoA with and without secondary beaconing.
	ExtensionRow = scenario.ExtensionRow
	// AblationPruningRow compares MRMM pruning against plain ODMRP.
	AblationPruningRow = scenario.AblationPruningRow
	// AblationKRow measures the beacon-redundancy tradeoff.
	AblationKRow = scenario.AblationKRow
	// AblationGridRow measures the grid-resolution tradeoff.
	AblationGridRow = scenario.AblationGridRow
)

// Extension studies beyond the paper's evaluation (each grounded in its
// design or future-work sections).
type (
	// AblationLocalizerRow compares the grid and particle backends.
	AblationLocalizerRow = scenario.AblationLocalizerRow
	// PowerControlRow is one transmit-power sweep outcome.
	PowerControlRow = scenario.PowerControlRow
	// ClockSkewRow quantifies SYNC's value under clock drift.
	ClockSkewRow = scenario.ClockSkewRow
)

// Localization backends for Config.Localizer.
const (
	LocalizerGrid     = icocoa.LocalizerGrid
	LocalizerParticle = icocoa.LocalizerParticle
	LocalizerEKF      = icocoa.LocalizerEKF
)

// LocalizerKind selects the RF estimation backend.
type LocalizerKind = icocoa.LocalizerKind

// Geographic routing over robot positions — the application the paper's
// conclusion motivates (Bose et al.'s greedy-face-greedy).
type (
	// GeoGraph is a connectivity + belief snapshot for routing.
	GeoGraph = georouting.Graph
	// GeoOutcome describes one routing attempt.
	GeoOutcome = georouting.Outcome
	// GeoStats aggregates routing outcomes.
	GeoStats = georouting.Stats
)

// NewGeoGraph builds a routing snapshot: truth defines radio connectivity,
// belief drives forwarding decisions.
func NewGeoGraph(truth, belief []Vec2, rangeM float64) (*GeoGraph, error) {
	return georouting.NewGraph(truth, belief, rangeM)
}

// BaselineRow compares localization systems at the same deployment scale.
type BaselineRow = scenario.BaselineRow

// Observability: event hooks and types (serialized by internal/eventlog
// through the cocoasim -events flag).
type (
	// Event is one observable occurrence in a run.
	Event = icocoa.Event
	// EventKind enumerates observable occurrences.
	EventKind = icocoa.EventKind
	// Observer consumes run events inline with the simulation.
	Observer = icocoa.Observer
)

// Event kinds.
const (
	EventWindowStart = icocoa.EventWindowStart
	EventWindowEnd   = icocoa.EventWindowEnd
	EventBeaconSent  = icocoa.EventBeaconSent
	EventFix         = icocoa.EventFix
	EventFixMissed   = icocoa.EventFixMissed
	EventSleep       = icocoa.EventSleep
	EventWake        = icocoa.EventWake
	EventSyncRecv    = icocoa.EventSyncRecv
	EventFailure     = icocoa.EventFailure
	EventCrash       = icocoa.EventCrash
	EventRecover     = icocoa.EventRecover
)

// Robustness studies.
type (
	// FailureRow is one failure-injection outcome.
	FailureRow = scenario.FailureRow
	// Replication holds cross-seed statistics of the headline metric.
	Replication = scenario.Replication
	// FaultRow is one (loss rate, crash fraction) cell of the fault sweep.
	FaultRow = scenario.FaultRow
	// FaultsConfig parameterizes the fault-injection layer
	// (Config.Faults): bursty link loss, crash/recovery outages, RSSI
	// outlier spikes, and initial clock skew. The zero value injects
	// nothing.
	FaultsConfig = faults.Config
	// GEConfig is the Gilbert–Elliott two-state loss channel; build one
	// with BurstyLoss or set the transition/loss probabilities directly.
	GEConfig = faults.GEConfig
)

// BurstyLoss returns a Gilbert–Elliott configuration with the given
// steady-state loss rate and mean burst length in frames, for
// Config.Faults.GE.
func BurstyLoss(lossRate, meanBurstFrames float64) GEConfig {
	return faults.Bursty(lossRate, meanBurstFrames)
}

// ScaleRow is one team size's outcome in the swarm-scale sweep.
type ScaleRow = scenario.ScaleRow

// ScaleSizes returns the swarm sweep's team sizes.
func ScaleSizes() []int { return scenario.ScaleSizes() }

// SwarmConfig builds a constant-density swarm deployment of n robots
// (DESIGN.md §12): the area grows with the team, transmit power drops so
// the neighborhood stays local, and the EKF backend keeps per-beacon cost
// independent of the area.
func SwarmConfig(n int) Config {
	return scenario.SwarmConfig(n)
}

// ReportingRow measures the controller-reporting data path.
type ReportingRow = scenario.ReportingRow

// TerrainRow compares smooth and rough ground for one localization mode.
type TerrainRow = scenario.TerrainRow
