// Package faults is the deterministic fault-injection layer for the CoCoA
// simulation: it models the unreliable regimes the paper's evaluation
// leaves out — bursty link loss (a Gilbert–Elliott two-state channel on
// every robot's receive path), robot crash/recovery outages, RSSI outlier
// spikes ahead of the Bayesian update, and per-robot clock skew on the
// beacon-window schedule.
//
// Every fault source draws from its own named sim.RNG stream, so a faulty
// run is exactly as bit-reproducible as a clean one at any parallelism.
// The zero Config disables every fault: no RNG stream is consumed and no
// hook is installed, which keeps fault-free runs byte-identical to builds
// without this package wired in.
package faults

import (
	"fmt"
	"math"
	"sort"

	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

// Config enables and parameterizes each fault source. The zero value
// injects nothing.
type Config struct {
	// GE is the bursty frame-loss process applied independently to each
	// robot's incoming frames (beacons, MRMM floods, SYNC, unicast alike:
	// everything crosses the same NIC delivery path).
	GE GEConfig

	// OutlierProb is the per-beacon probability that the reported RSSI is
	// perturbed by a spike before the Bayesian update sees it.
	OutlierProb float64
	// OutlierMeanDB is the mean spike magnitude in dB (exponentially
	// distributed, random sign). Zero selects DefaultOutlierMeanDB.
	OutlierMeanDB float64

	// CrashFraction of the team (rounded, Sync robot excluded) crashes
	// once mid-run: radio powered off, no beacons, no forwarding, no
	// energy draw — while odometry keeps drifting.
	CrashFraction float64
	// CrashMeanDownS is the mean outage duration in seconds (exponentially
	// distributed, floored at one second). Zero means crashed robots never
	// recover.
	CrashMeanDownS float64

	// SkewMaxS bootstraps each robot (except the Sync robot) with a clock
	// offset drawn uniformly from [-SkewMaxS, +SkewMaxS], applied to its
	// beacon-window timers until a SYNC message resynchronizes it.
	SkewMaxS float64
}

// DefaultOutlierMeanDB is the spike magnitude used when Config.OutlierProb
// is set but OutlierMeanDB is left zero.
const DefaultOutlierMeanDB = 12.0

// Enabled reports whether any fault source is configured.
func (c Config) Enabled() bool {
	return c.GE.Enabled() || c.OutlierProb > 0 || c.CrashFraction > 0 || c.SkewMaxS > 0
}

// LinkEnabled reports whether the per-NIC receive-path filter (loss or
// RSSI outliers) is needed.
func (c Config) LinkEnabled() bool {
	return c.GE.Enabled() || c.OutlierProb > 0
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.GE.Validate(); err != nil {
		return err
	}
	switch {
	case c.OutlierProb < 0 || c.OutlierProb > 1:
		return fmt.Errorf("faults: OutlierProb %v out of [0,1]", c.OutlierProb)
	case c.OutlierMeanDB < 0:
		return fmt.Errorf("faults: negative OutlierMeanDB %v", c.OutlierMeanDB)
	case c.CrashFraction < 0 || c.CrashFraction > 1:
		return fmt.Errorf("faults: CrashFraction %v out of [0,1]", c.CrashFraction)
	case c.CrashMeanDownS < 0:
		return fmt.Errorf("faults: negative CrashMeanDownS %v", c.CrashMeanDownS)
	case c.SkewMaxS < 0:
		return fmt.Errorf("faults: negative SkewMaxS %v", c.SkewMaxS)
	}
	return nil
}

// outlierMean returns the effective spike magnitude.
func (c Config) outlierMean() float64 {
	if c.OutlierMeanDB > 0 {
		return c.OutlierMeanDB
	}
	return DefaultOutlierMeanDB
}

// Link filters one robot's incoming frames: the Gilbert–Elliott process
// decides frame drops, and surviving frames of the configured kind may get
// an RSSI outlier spike. It satisfies the network layer's fault-filter
// hook without importing it.
type Link struct {
	ge          *GilbertElliott // nil when loss is disabled
	outlierProb float64
	outlierMean float64
	outlierKind int // frame kind eligible for spikes; 0 means all kinds
	rng         *sim.RNG

	drops    int
	outliers int
}

// NewLink builds the receive-path filter for one robot. lossRng drives the
// Gilbert–Elliott chain and outlierRng the spikes; they must be dedicated
// streams (typically StreamN-derived per robot). outlierKind restricts
// spikes to one frame kind (the localization beacon); zero spikes every
// kind.
func NewLink(cfg Config, lossRng, outlierRng *sim.RNG, outlierKind int) *Link {
	l := &Link{
		outlierProb: cfg.OutlierProb,
		outlierMean: cfg.outlierMean(),
		outlierKind: outlierKind,
		rng:         outlierRng,
	}
	if cfg.GE.Enabled() {
		l.ge = NewGilbertElliott(cfg.GE, lossRng)
	}
	return l
}

// Incoming decides the fate of one delivered frame: the returned RSSI may
// carry an outlier spike, and drop reports whether the frame is lost to
// the bursty channel.
func (l *Link) Incoming(kind int, rssiDBm float64) (float64, bool) {
	if l.ge != nil && l.ge.Drop() {
		l.drops++
		return rssiDBm, true
	}
	if l.outlierProb > 0 && (l.outlierKind == 0 || kind == l.outlierKind) {
		if l.rng.Bool(l.outlierProb) {
			spike := l.rng.Exp(l.outlierMean)
			if l.rng.Bool(0.5) {
				spike = -spike
			}
			l.outliers++
			return rssiDBm + spike, false
		}
	}
	return rssiDBm, false
}

// Drops returns the number of frames the bursty channel ate.
func (l *Link) Drops() int { return l.drops }

// Outliers returns the number of RSSI spikes injected.
func (l *Link) Outliers() int { return l.outliers }

// Publish adds what each fault source did to reg (faults.*).
func (l *Link) Publish(reg *telemetry.Registry) {
	reg.Add("faults.drops.loss", l.drops)
	reg.Add("faults.outliers", l.outliers)
}

// Outage is one robot's crash interval: the robot is down in
// [StartS, EndS). EndS past the run duration means it never recovers.
type Outage struct {
	Robot  int
	StartS float64
	EndS   float64
}

// CrashSchedule draws the crash plan: round(CrashFraction * n) robots,
// never spareID (the Sync robot — the schedule must survive), each crash
// once at a uniform instant in the middle 80% of the run for an
// exponentially distributed outage of mean CrashMeanDownS seconds
// (permanent when zero). The plan is sorted by robot ID so event
// scheduling order is stable.
func CrashSchedule(c Config, n, spareID int, durationS float64, rng *sim.RNG) []Outage {
	k := int(c.CrashFraction*float64(n) + 0.5)
	if k <= 0 || n <= 1 || durationS <= 0 {
		return nil
	}
	candidates := make([]int, 0, n-1)
	for id := 0; id < n; id++ {
		if id != spareID {
			candidates = append(candidates, id)
		}
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	perm := rng.Perm(len(candidates))
	chosen := make([]int, k)
	for i := 0; i < k; i++ {
		chosen[i] = candidates[perm[i]]
	}
	sort.Ints(chosen)
	out := make([]Outage, k)
	for i, id := range chosen {
		start := rng.Uniform(0.1*durationS, 0.9*durationS)
		end := math.Inf(1)
		if c.CrashMeanDownS > 0 {
			down := rng.Exp(c.CrashMeanDownS)
			if down < 1 {
				down = 1
			}
			end = start + down
		}
		out[i] = Outage{Robot: id, StartS: start, EndS: end}
	}
	return out
}
