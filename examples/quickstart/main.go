// The quickstart example builds a small CoCoA team, runs five simulated
// minutes, and prints the localization-error summary plus a Figure 5-style
// real-vs-odometry path pair — a minimal end-to-end tour of the public
// API.
package main

import (
	"context"
	"fmt"
	"os"

	"cocoa"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A 10-robot team, half with localization devices, T = 50 s.
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 10
	cfg.NumEquipped = 5
	cfg.BeaconPeriodS = 50
	cfg.DurationS = 300
	cfg.Seed = 42

	fmt.Println("Running CoCoA:", cfg.NumRobots, "robots,", cfg.NumEquipped,
		"equipped, T =", cfg.BeaconPeriodS, "s ...")
	res, err := cocoa.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Println("\nLocalization error of the unequipped robots over time:")
	for i := 0; i < len(res.Times); i += 30 {
		fmt.Printf("  t=%3.0fs  avg error %6.2f m\n", res.Times[i], res.AvgError[i])
	}
	fmt.Printf("\nmean over the whole run: %.2f m\n", res.MeanError())
	fmt.Printf("RF fixes: %d (%.0f%% of windows)\n", res.Fixes, 100*res.FixRate())
	fmt.Printf("energy: %.0f J with coordination, %.0f J without (%.1fx savings)\n",
		res.TotalEnergyJ, res.NoSleepEnergyJ, res.EnergySavings())

	// The motivation for RF fixes: odometry alone drifts without bound.
	// Reproduce the paper's Figure 5 with one robot, through the experiment
	// registry: find the descriptor by name, run it, and type-assert its
	// concrete result.
	var fig5 *cocoa.Fig5Result
	for _, d := range cocoa.Experiments() {
		if d.Name == "fig5" {
			v, err := d.Run(context.Background(), cocoa.ExperimentOptions{Seed: 42, DurationS: 300})
			if err != nil {
				return err
			}
			fig5 = v.(*cocoa.Fig5Result)
		}
	}
	fmt.Println("\nWhy odometry alone is not enough (one robot, 5 minutes):")
	n := len(fig5.True)
	for i := 0; i < n; i += n / 6 {
		fmt.Printf("  t=%3ds  true %v   odometry believes %v\n",
			i, fig5.True[i], fig5.Estimated[i])
	}
	fmt.Printf("  final drift: %.1f m and growing\n", fig5.FinalGapM)
	return nil
}
