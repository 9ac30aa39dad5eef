package cocoa

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/metrics"
	"cocoa/internal/mrmm"
)

// Result holds everything a run measured: the localization-error time
// series (per robot and team-averaged), the energy ledger, and protocol
// counters.
type Result struct {
	Config Config

	// Times and AvgError form the error-over-time series the paper plots
	// (Figures 4, 6, 7, 9a, 10): the average over tracked robots at each
	// sample instant.
	Times    []float64
	AvgError []float64
	// PerRobot[i][k] is tracked robot i's error at Times[k], retained so
	// CDF snapshots (Figure 8) can be cut at any instant.
	PerRobot   [][]float64
	TrackedIDs []int

	// Energy ledger (Figure 9b). NoSleepEnergyJ is the counterfactual
	// "without coordination" total computed from the same run: every
	// sleep interval re-priced at idle power.
	TotalEnergyJ    float64
	NoSleepEnergyJ  float64
	PerRobotEnergyJ []float64

	// Protocol diagnostics.
	MAC            mac.Stats
	MRMM           mrmm.Stats
	Fixes          int
	MissedWindows  int
	BeaconsApplied int
	SyncsReceived  int

	// Controller-reporting outcome (Config.EnableReporting).
	ReportsSent      int
	ReportsDelivered int
	ReportHopsTotal  int

	// Fault-injection outcome (Config.Faults). All zero on clean runs.
	Crashes      int // crash events that fired
	FaultDrops   int // frames eaten by the bursty channel after MAC decode
	RSSIOutliers int // beacons whose RSSI carried an injected spike
	NeverFixed   int // tracked robots that finished without ever fixing

	// Final state for every robot (indexed by robot ID): where it really
	// ended and where it believed it was. Downstream consumers (e.g. the
	// geographic-routing example) build on these.
	FinalTruePositions []geom.Vec2
	FinalEstimates     []geom.Vec2
	Equipped           []bool
}

// scrubObservers strips the process-level observability handles before a
// Config is archived inside a Result. The Result is a record of the
// experiment, and Progress/Observer describe how the hosting process
// watched this particular run — retaining them would keep the sinks alive
// past the run and make otherwise-identical Results compare unequal.
func scrubObservers(cfg Config) Config {
	cfg.Progress = nil
	cfg.Observer = nil
	return cfg
}

// maxReservedSamples bounds the float64s a Result reserves up front across
// its series rows (Times, AvgError and every PerRobot row): 8 MiB. Config
// bounds no magnitudes, so a valid config can ask for a billion sampling
// ticks; the rows of a run that long grow by append past the reservation.
const maxReservedSamples = 1 << 20

// newResult returns an empty Result for a run of cfg tracking the given
// robots, its series rows reserved for the run's samples.
func newResult(cfg Config, tracked []int) *Result {
	res := new(Result)
	res.reset(cfg, tracked)
	return res
}

// reset rewinds a Result — a new one or a recycled one — to the empty
// Result of a run of cfg tracking the given robots. Every slice keeps its
// backing array, and every series row (Times, AvgError, each PerRobot row)
// gets room for the run's maxSampleTicks samples, within the
// maxReservedSamples budget: rows short of it are carved from one new
// array, so sampling never grows a row by append. Counters and aggregates
// are zeroed wholesale by value assignment; only the slices are carried
// over.
func (r *Result) reset(cfg Config, tracked []int) {
	per := r.PerRobot
	if per != nil && cap(per) >= len(tracked) {
		// Re-extend over the full capacity first so inner backing arrays
		// parked beyond the previous length are reclaimed too, then cut to
		// size after the truncation loop below empties every row.
		per = per[:cap(per)]
	} else {
		fresh := make([][]float64, len(tracked))
		copy(fresh, per[:cap(per)])
		per = fresh
	}
	for i := range per {
		per[i] = per[i][:0]
	}
	per = per[:len(tracked)]
	times, avg := r.Times[:0], r.AvgError[:0]

	rows := len(per) + 2
	n := min(maxSampleTicks(cfg), maxReservedSamples/rows)
	short := 0
	for _, row := range per {
		if cap(row) < n {
			short++
		}
	}
	if cap(times) < n {
		short++
	}
	if cap(avg) < n {
		short++
	}
	var spare []float64
	if short > 0 {
		spare = make([]float64, short*n)
	}
	reserve := func(row []float64) []float64 {
		if cap(row) >= n {
			return row
		}
		row, spare = spare[:0:n], spare[n:]
		return row
	}
	for i := range per {
		per[i] = reserve(per[i])
	}
	robots := cfg.NumRobots
	*r = Result{
		Config:             scrubObservers(cfg),
		TrackedIDs:         tracked,
		Times:              reserve(times),
		AvgError:           reserve(avg),
		PerRobot:           per,
		PerRobotEnergyJ:    slices.Grow(r.PerRobotEnergyJ[:0], robots),
		FinalTruePositions: slices.Grow(r.FinalTruePositions[:0], robots),
		FinalEstimates:     slices.Grow(r.FinalEstimates[:0], robots),
		Equipped:           slices.Grow(r.Equipped[:0], robots),
	}
}

// MeanError returns the localization error averaged over robots and time —
// the paper's "average localization error over time" headline metric.
func (r *Result) MeanError() float64 {
	if len(r.AvgError) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range r.AvgError {
		s += v
	}
	return s / float64(len(r.AvgError))
}

// MaxAvgError returns the worst team-averaged error over time.
func (r *Result) MaxAvgError() float64 {
	if len(r.AvgError) == 0 {
		return math.NaN()
	}
	m := r.AvgError[0]
	for _, v := range r.AvgError[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// nearestSample returns the index of the sample instant closest to t, the
// earlier one on an exact tie, or -1 when the result has no samples. A t
// before the first or after the last sample (infinities included) clamps
// to that end.
func (r *Result) nearestSample(t float64) int {
	n := len(r.Times)
	if n == 0 {
		return -1
	}
	i := sort.SearchFloat64s(r.Times, t) // first sample at or after t
	if i == n || i > 0 && t-r.Times[i-1] <= r.Times[i]-t {
		i--
	}
	return i
}

// ErrorAt returns the team-averaged error at the sample instant closest to
// t (NaN when the result has no samples).
func (r *Result) ErrorAt(t float64) float64 {
	k := r.nearestSample(t)
	if k < 0 {
		return math.NaN()
	}
	return r.AvgError[k]
}

// ErrorCDFAt returns the CDF of per-robot error at the sample instant
// closest to t — Figure 8's three snapshots.
func (r *Result) ErrorCDFAt(t float64) (*metrics.CDF, error) {
	k := r.nearestSample(t)
	if k < 0 {
		return nil, fmt.Errorf("cocoa: result has no samples")
	}
	xs := make([]float64, 0, len(r.PerRobot))
	for _, series := range r.PerRobot {
		if k < len(series) {
			xs = append(xs, series[k])
		}
	}
	return metrics.NewCDF(xs), nil
}

// ReportDeliveryRate returns the fraction of controller reports that
// reached the Sync robot (NaN when reporting was off or nothing was sent).
func (r *Result) ReportDeliveryRate() float64 {
	if r.ReportsSent == 0 {
		return math.NaN()
	}
	return float64(r.ReportsDelivered) / float64(r.ReportsSent)
}

// EnergySavings returns the paper's Figure 9(b) ratio: energy without
// coordination over energy with coordination.
func (r *Result) EnergySavings() float64 {
	if r.TotalEnergyJ == 0 {
		return math.NaN()
	}
	return r.NoSleepEnergyJ / r.TotalEnergyJ
}

// FixRate returns the fraction of (robot, window) opportunities that ended
// in a successful RF fix.
func (r *Result) FixRate() float64 {
	total := r.Fixes + r.MissedWindows
	if total == 0 {
		return math.NaN()
	}
	return float64(r.Fixes) / float64(total)
}

// UncoveredFraction returns the fraction of (robot, window) localization
// opportunities that ended without a fix — the robustness sweep's
// coverage metric. Windows a robot spends crashed count as uncovered: a
// silent robot is exactly what the fault model is probing. Runs without
// RF windows return NaN.
func (r *Result) UncoveredFraction() float64 {
	total := r.Fixes + r.MissedWindows
	if total == 0 {
		return math.NaN()
	}
	return float64(r.MissedWindows) / float64(total)
}

// Summary is the one projection of a Result the repo writes out: the
// headline metrics each figure family reports, plus protocol counters
// sensitive to ordering bugs. The golden regression suite compares it,
// taken from a Result after a JSON round trip, byte for byte against
// internal/scenario/testdata/golden_*.json, and cocoasim -json embeds it.
// Floats are stored at full precision — runs are bit-deterministic, so
// exact equality is the right bar.
type Summary struct {
	MeanErrorM     float64 `json:"meanErrorM"`
	MaxAvgErrorM   float64 `json:"maxAvgErrorM"`
	FinalAvgErrorM float64 `json:"finalAvgErrorM"`
	Samples        int     `json:"samples"`

	Fixes          int `json:"fixes"`
	MissedWindows  int `json:"missedWindows"`
	BeaconsApplied int `json:"beaconsApplied"`
	SyncsReceived  int `json:"syncsReceived"`

	TotalEnergyJ   float64 `json:"totalEnergyJ"`
	NoSleepEnergyJ float64 `json:"noSleepEnergyJ"`

	MACSent         int `json:"macSent"`
	MACDelivered    int `json:"macDelivered"`
	MACCollided     int `json:"macCollided"`
	MACMissedAsleep int `json:"macMissedAsleep"`

	FaultDrops int `json:"faultDrops"`
	Crashes    int `json:"crashes"`
}

// Summary reduces the result to its Summary.
func (r *Result) Summary() Summary {
	final := 0.0
	if n := len(r.AvgError); n > 0 {
		final = r.AvgError[n-1]
	}
	return Summary{
		MeanErrorM:      r.MeanError(),
		MaxAvgErrorM:    r.MaxAvgError(),
		FinalAvgErrorM:  final,
		Samples:         len(r.Times),
		Fixes:           r.Fixes,
		MissedWindows:   r.MissedWindows,
		BeaconsApplied:  r.BeaconsApplied,
		SyncsReceived:   r.SyncsReceived,
		TotalEnergyJ:    r.TotalEnergyJ,
		NoSleepEnergyJ:  r.NoSleepEnergyJ,
		MACSent:         r.MAC.Sent,
		MACDelivered:    r.MAC.Delivered,
		MACCollided:     r.MAC.Collided,
		MACMissedAsleep: r.MAC.MissedAsleep,
		FaultDrops:      r.FaultDrops,
		Crashes:         r.Crashes,
	}
}
