package cocoa_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cocoa"
)

// Example runs a small CoCoA deployment end to end and checks the two
// headline properties: bounded localization error and energy savings from
// coordinated sleeping.
func Example() {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 10
	cfg.NumEquipped = 5
	cfg.BeaconPeriodS = 30
	cfg.DurationS = 120
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 40000
	cfg.Seed = 42

	res, err := cocoa.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("fixes happened:", res.Fixes > 0)
	fmt.Println("steady error below 30 m:", res.ErrorAt(110) < 30)
	fmt.Println("coordination saves energy:", res.EnergySavings() > 1)
	// Output:
	// fixes happened: true
	// steady error below 30 m: true
	// coordination saves energy: true
}

// ExampleRunContext runs a deployment under a deadline. The context only
// gates execution — a run that completes is byte-identical to Run — while
// an expired deadline stops the simulation cooperatively.
func ExampleRunContext() {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 10
	cfg.NumEquipped = 5
	cfg.DurationS = 120
	cfg.GridCellM = 8
	cfg.Calibration.Samples = 40000

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := cocoa.RunContext(ctx, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("completed:", len(res.Times) > 0)

	// An invalid configuration reports which field failed, wrapped under
	// ErrInvalidConfig for errors.Is/As dispatch.
	bad := cfg
	bad.NumRobots = 0
	_, err = cocoa.RunContext(ctx, bad)
	var ce *cocoa.ConfigError
	fmt.Println("invalid:", errors.Is(err, cocoa.ErrInvalidConfig), "field:", errors.As(err, &ce) && ce.Field == "NumRobots")
	// Output:
	// completed: true
	// invalid: true field: true
}

// ExampleExperiments dispatches an experiment through the registry — the
// uniform, context-aware path for every figure and extension.
func ExampleExperiments() {
	for _, d := range cocoa.Experiments() {
		if d.Name != "fig9" {
			continue
		}
		v, err := d.Run(context.Background(), cocoa.ExperimentOptions{
			Seed: 1, DurationS: 120, NumRobots: 10,
			CalibrationSamples: 40000, GridCellM: 8,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rows := v.([]cocoa.Fig9Row)
		fmt.Println("periods swept:", len(rows))
	}
	// Output:
	// periods swept: 4
}

// ExampleExperiments_fig9 regenerates the paper's Figure 9 at a reduced
// scale through the registry — look the descriptor up by name, run it, and
// type-assert its concrete result — and reports the figure's qualitative
// shape: energy savings grow with the beacon period.
func ExampleExperiments_fig9() {
	for _, d := range cocoa.Experiments() {
		if d.Name != "fig9" {
			continue
		}
		v, err := d.Run(context.Background(), cocoa.ExperimentOptions{
			Seed: 1, DurationS: 120, NumRobots: 10,
			CalibrationSamples: 40000, GridCellM: 8,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rows := v.([]cocoa.Fig9Row)
		grows := true
		for i := 1; i < len(rows); i++ {
			if rows[i].SavingsRatio <= rows[i-1].SavingsRatio {
				grows = false
			}
		}
		fmt.Println("periods swept:", len(rows))
		fmt.Println("savings grow with T:", grows)
	}
	// Output:
	// periods swept: 4
	// savings grow with T: true
}

// ExampleNewGeoGraph routes a packet with greedy-face-greedy over a tiny
// three-node line.
func ExampleNewGeoGraph() {
	pts := []cocoa.Vec2{{X: 0}, {X: 30}, {X: 60}}
	g, err := cocoa.NewGeoGraph(pts, pts, 40)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, err := g.GFG(0, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("delivered:", out.Delivered, "hops:", out.Hops)
	// Output:
	// delivered: true hops: 2
}
