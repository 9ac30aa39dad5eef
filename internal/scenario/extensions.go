package scenario

import (
	"context"

	"cocoa/internal/cocoa"
)

// AblationLocalizerRow compares RF estimation backends (DESIGN.md §5 and
// the paper's claim that CoCoA is not tied to one localization technique).
type AblationLocalizerRow struct {
	Backend    string
	MeanErrorM float64
	FixRate    float64
}

// RunAblationLocalizer runs the same deployment with the paper's grid
// estimator, with Monte Carlo localization, and with an EKF.
func RunAblationLocalizer(ctx context.Context, opts Options) ([]AblationLocalizerRow, error) {
	kinds := []cocoa.LocalizerKind{cocoa.LocalizerGrid, cocoa.LocalizerParticle, cocoa.LocalizerEKF}
	return sweep(ctx, opts, kinds, func(kind cocoa.LocalizerKind) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		cfg.Localizer = kind
		opts.apply(&cfg)
		return cfg
	}, func(kind cocoa.LocalizerKind, _ cocoa.Config, res *cocoa.Result) AblationLocalizerRow {
		return AblationLocalizerRow{
			Backend:    kind.String(),
			MeanErrorM: res.MeanError(),
			FixRate:    res.FixRate(),
		}
	})
}

// PowerControlRow is one transmit-power outcome of the paper's future-work
// question: "how transmission power control can be used to increase the
// distance that nodes in the CoCoA architecture can cooperate".
type PowerControlRow struct {
	TxPowerDBm  float64
	MeanRangeM  float64
	MeanErrorM  float64
	FixRate     float64
	EnergyJ     float64
	BeaconsUsed int
}

// RunExtensionPowerControl sweeps the beacon transmit power in a
// coverage-limited deployment (few equipped robots), where range directly
// controls how many robots can cooperate.
func RunExtensionPowerControl(ctx context.Context, opts Options) ([]PowerControlRow, error) {
	return sweep(ctx, opts, []float64{9, 12, 15, 18}, func(tx float64) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		cfg.Radio.TxPowerDBm = tx
		opts.applyEquipped(&cfg, 5)
		return cfg
	}, func(tx float64, cfg cocoa.Config, res *cocoa.Result) PowerControlRow {
		return PowerControlRow{
			TxPowerDBm:  tx,
			MeanRangeM:  cfg.Radio.MeanRange(),
			MeanErrorM:  res.MeanError(),
			FixRate:     res.FixRate(),
			EnergyJ:     res.TotalEnergyJ,
			BeaconsUsed: res.BeaconsApplied,
		}
	})
}

// ClockSkewRow quantifies the value of the MRMM SYNC machinery under
// imperfect clocks.
type ClockSkewRow struct {
	DriftSigmaS float64
	SyncEnabled bool
	MeanErrorM  float64
	FixRate     float64
	MissedPkts  int
}

// RunExtensionClockSkew sweeps per-period clock drift with and without
// SYNC dissemination. Without SYNC the robots rely on a preprogrammed
// schedule, so their windows slide off the Sync robot's time base and
// beacons land on sleeping radios.
func RunExtensionClockSkew(ctx context.Context, opts Options) ([]ClockSkewRow, error) {
	type point struct {
		drift  float64
		syncOn bool
	}
	var points []point
	for _, drift := range []float64{0, 0.5, 1.5} {
		points = append(points, point{drift, true}, point{drift, false})
	}
	return sweep(ctx, opts, points, func(p point) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		cfg.ClockDriftSigmaS = p.drift
		cfg.DisableSync = !p.syncOn
		opts.apply(&cfg)
		return cfg
	}, func(p point, _ cocoa.Config, res *cocoa.Result) ClockSkewRow {
		return ClockSkewRow{
			DriftSigmaS: p.drift,
			SyncEnabled: p.syncOn,
			MeanErrorM:  res.MeanError(),
			FixRate:     res.FixRate(),
			MissedPkts:  res.MAC.MissedAsleep,
		}
	})
}

// ReportingRow measures the controller-reporting data path at one beacon
// period: how reliably localized robots can unicast status reports to the
// Sync robot over their own CoCoA coordinates.
type ReportingRow struct {
	PeriodS      float64
	DeliveryRate float64
	MeanHops     float64
	ReportsSent  int
	MeanErrorM   float64
}

// RunExtensionReporting exercises the paper-conclusion application: with
// EnableReporting on, every localized unequipped robot sends one report
// per window toward the Sync robot by greedy geographic forwarding.
func RunExtensionReporting(ctx context.Context, opts Options) ([]ReportingRow, error) {
	return sweep(ctx, opts, []float64{50, 100}, func(T float64) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		cfg.EnableReporting = true
		cfg.BeaconPeriodS = T
		opts.apply(&cfg)
		return cfg
	}, func(T float64, _ cocoa.Config, res *cocoa.Result) ReportingRow {
		row := ReportingRow{
			PeriodS:      T,
			DeliveryRate: res.ReportDeliveryRate(),
			ReportsSent:  res.ReportsSent,
			MeanErrorM:   res.MeanError(),
		}
		if res.ReportsDelivered > 0 {
			row.MeanHops = float64(res.ReportHopsTotal) / float64(res.ReportsDelivered)
		}
		return row
	})
}
