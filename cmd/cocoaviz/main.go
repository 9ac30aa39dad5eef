// Command cocoaviz runs a CoCoA deployment and renders SVG snapshots: the
// final deployment state (true vs believed positions) and a Figure 5-style
// odometry-drift path comparison.
//
// Examples:
//
//	cocoaviz -o deployment.svg
//	cocoaviz -path -o drift.svg -duration 600
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"cocoa"
	"cocoa/internal/geom"
	"cocoa/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cocoaviz:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cocoaviz", flag.ContinueOnError)
	var (
		out      = fs.String("o", "", "output SVG path (default: stdout)")
		path     = fs.Bool("path", false, "render the odometry path comparison instead of the deployment")
		robots   = fs.Int("robots", 50, "team size")
		equipped = fs.Int("equipped", 25, "robots with localization devices")
		period   = fs.Float64("T", 100, "beacon period (s)")
		duration = fs.Float64("duration", 600, "simulated time (s)")
		seed     = fs.Int64("seed", 1, "random seed")
		pixels   = fs.Float64("px", 700, "canvas width in pixels")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var svg string
	if *path {
		var fig5 *cocoa.Fig5Result
		for _, d := range cocoa.Experiments() {
			if d.Name == "fig5" {
				v, err := d.Run(context.Background(), cocoa.ExperimentOptions{Seed: *seed, DurationS: *duration})
				if err != nil {
					return err
				}
				fig5 = v.(*cocoa.Fig5Result)
			}
		}
		var err error
		svg, err = viz.PathSVG(fig5.True, fig5.Estimated, geom.Square(200), *pixels)
		if err != nil {
			return err
		}
	} else {
		cfg := cocoa.DefaultConfig()
		cfg.NumRobots = *robots
		cfg.NumEquipped = *equipped
		cfg.BeaconPeriodS = *period
		cfg.DurationS = *duration
		cfg.Seed = *seed
		res, err := cocoa.Run(cfg)
		if err != nil {
			return err
		}
		svg, err = viz.DeploymentSVG(res, *pixels)
		if err != nil {
			return err
		}
	}

	if *out == "" {
		_, err := io.WriteString(w, svg+"\n")
		return err
	}
	return os.WriteFile(*out, []byte(svg), 0o644)
}
