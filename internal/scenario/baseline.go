package scenario

import (
	"context"

	"cocoa/internal/cocoa"
	"cocoa/internal/coopos"
	"cocoa/internal/runner"
)

// BaselineRow compares localization systems on the same deployment scale.
// MobilityDutyPct is the fraction of time a robot is free to pursue its
// task: Cooperative Positioning parks half the team as landmarks at any
// moment, a cost CoCoA does not pay.
type BaselineRow struct {
	System          string
	MeanErrorM      float64
	FinalErrorM     float64
	MobilityDutyPct float64
	EquippedRobots  int
}

// RunBaselineCoopPos compares CoCoA against the Cooperative Positioning
// baseline (Kurazume et al., the paper's related-work Section 5) and the
// odometry-only floor, all at the same team size and duration. The three
// systems are independent simulations, so they run as one fan-out on the
// experiment engine — heterogeneous jobs each producing a finished row.
func RunBaselineCoopPos(ctx context.Context, opts Options) ([]BaselineRow, error) {
	// CoCoA, the paper's default setup; the other systems mirror its scale.
	cocoaCfg := cocoa.DefaultConfig()
	opts.apply(&cocoaCfg)
	cocoaCfg.Progress = opts.Gauge

	jobs := []func(context.Context) (BaselineRow, error){
		func(jctx context.Context) (BaselineRow, error) {
			res, err := cocoa.RunContext(jctx, cocoaCfg)
			if err != nil {
				return BaselineRow{}, err
			}
			return BaselineRow{
				System:          "cocoa",
				MeanErrorM:      res.MeanError(),
				FinalErrorM:     res.AvgError[len(res.AvgError)-1],
				MobilityDutyPct: 100,
				EquippedRobots:  cocoaCfg.NumEquipped,
			}, nil
		},
		func(jctx context.Context) (BaselineRow, error) {
			// Cooperative Positioning: no localization devices at all; half
			// the team is parked as landmarks at any instant.
			cpCfg := coopos.DefaultConfig()
			cpCfg.Seed = opts.seed()
			cpCfg.NumRobots = cocoaCfg.NumRobots
			cpCfg.VMax = cocoaCfg.VMax
			cpCfg.DurationS = cocoaCfg.DurationS
			cpCfg.GridCellM = cocoaCfg.GridCellM
			cpCfg.Calibration = cocoaCfg.Calibration
			res, err := coopos.Run(jctx, cpCfg)
			if err != nil {
				return BaselineRow{}, err
			}
			return BaselineRow{
				System:          "cooperative-positioning",
				MeanErrorM:      res.MeanError(),
				FinalErrorM:     res.FinalError(),
				MobilityDutyPct: 50,
				EquippedRobots:  0,
			}, nil
		},
		func(jctx context.Context) (BaselineRow, error) {
			// Odometry-only floor.
			odoCfg := cocoa.DefaultConfig()
			odoCfg.Mode = cocoa.ModeOdometryOnly
			opts.apply(&odoCfg)
			odoCfg.Progress = opts.Gauge
			res, err := cocoa.RunContext(jctx, odoCfg)
			if err != nil {
				return BaselineRow{}, err
			}
			return BaselineRow{
				System:          "odometry-only",
				MeanErrorM:      res.MeanError(),
				FinalErrorM:     res.AvgError[len(res.AvgError)-1],
				MobilityDutyPct: 100,
				EquippedRobots:  0,
			}, nil
		},
	}

	return runner.Map(ctx, opts.engine(), len(jobs), func(jctx context.Context, i int) (BaselineRow, error) {
		return jobs[i](jctx)
	})
}
