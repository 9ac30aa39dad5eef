package scenario

import (
	"context"

	"cocoa/internal/cocoa"
	"cocoa/internal/faults"
)

// The robustness sweep stresses CoCoA with the unreliable regimes the
// paper's evaluation leaves out: bursty link loss (Gilbert–Elliott) and
// robot crash/recovery outages, crossed into a grid. The expected shape is
// graceful degradation — mean error and the uncovered-robot fraction rise
// with fault intensity, but every run completes and no metric collapses.

// FaultLossRates returns the sweep's Gilbert–Elliott steady-state loss axis.
func FaultLossRates() []float64 { return []float64{0, 0.25, 0.5} }

// FaultCrashFractions returns the sweep's crashed-team-fraction axis.
func FaultCrashFractions() []float64 { return []float64{0, 0.2} }

// FaultRow is one (loss rate, crash fraction) cell of the sweep.
type FaultRow struct {
	LossRate      float64
	CrashFraction float64
	MeanErrorM    float64
	MaxAvgErrorM  float64
	Uncovered     float64 // fraction of (robot, window) opportunities without a fix
	FixRate       float64
	FaultDrops    int
	Crashes       int
	NeverFixed    int
}

// RunFaultSweep crosses burst-loss rates with crash fractions on the
// default CoCoA deployment. Crashed robots stay down for about two beacon
// periods (exponentially distributed), so they miss windows and rejoin —
// the recovery path is exercised, not just the outage.
func RunFaultSweep(ctx context.Context, opts Options) ([]FaultRow, error) {
	type cell struct{ loss, crash float64 }
	var cells []cell
	for _, crash := range FaultCrashFractions() {
		for _, loss := range FaultLossRates() {
			cells = append(cells, cell{loss, crash})
		}
	}
	return sweep(ctx, opts, cells, func(c cell) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		opts.apply(&cfg)
		cfg.Faults.GE = faults.Bursty(c.loss, faults.DefaultBurstFrames)
		cfg.Faults.CrashFraction = c.crash
		cfg.Faults.CrashMeanDownS = 2 * float64(cfg.BeaconPeriodS)
		return cfg
	}, func(c cell, _ cocoa.Config, res *cocoa.Result) FaultRow {
		return FaultRow{
			LossRate:      c.loss,
			CrashFraction: c.crash,
			MeanErrorM:    res.MeanError(),
			MaxAvgErrorM:  res.MaxAvgError(),
			Uncovered:     res.UncoveredFraction(),
			FixRate:       res.FixRate(),
			FaultDrops:    res.FaultDrops,
			Crashes:       res.Crashes,
			NeverFixed:    res.NeverFixed,
		}
	})
}
