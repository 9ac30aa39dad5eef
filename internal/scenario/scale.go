package scenario

import (
	"context"
	"math"
	"slices"

	"cocoa/internal/cocoa"
	"cocoa/internal/geom"
)

// The scale experiment stresses the dimension the paper's evaluation holds
// fixed: team size. CoCoA's per-frame MAC cost is the quantity that decides
// whether the architecture survives a swarm — every beacon historically
// visited all n-1 other radios, so a 1000-robot team paid 40x the paper's
// per-frame cost at 20x the team. The spatial neighbor index (DESIGN.md
// §12) bounds that visit set by the local neighborhood; this sweep measures
// localization quality staying flat while the swarm grows at constant
// density, and doubles as the workload BenchmarkSwarm* times.

// ScaleSizes returns the swept team sizes, from the paper's 50-robot scale
// to a swarm.
func ScaleSizes() []int { return []int{25, 100, 250, 1000} }

// SwarmConfig builds a constant-density deployment of n robots: the area
// grows with the team (the paper's 50 robots in 200 m x 200 m fixes the
// density), transmit power drops to -10 dBm so a swarm has a genuinely
// local neighborhood instead of one shared channel, and the EKF backend
// keeps per-beacon localization cost independent of the area (the Bayesian
// grid's cost grows with it). Half the team is equipped, as in the paper.
func SwarmConfig(n int) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = n
	cfg.NumEquipped = n / 2
	if cfg.NumEquipped < 1 {
		cfg.NumEquipped = 1
	}
	side := 200 * math.Sqrt(float64(n)/50)
	cfg.Area = geom.Square(side)
	cfg.Radio.TxPowerDBm = -10
	cfg.Localizer = cocoa.LocalizerEKF
	// Short, beacon-dense runs: the sweep measures MAC behavior at scale,
	// not long-horizon drift, and T=20 keeps radio traffic the dominant
	// cost at every size.
	cfg.DurationS = 120
	cfg.BeaconPeriodS = 20
	return cfg
}

// ScaleRow is one team size's outcome. Every field is simulation-
// deterministic (no wall-clock measurements), so the row is byte-identical
// across hosts, worker counts, and neighbor-index settings.
type ScaleRow struct {
	Robots         int
	Equipped       int
	AreaSideM      float64
	MeanErrorM     float64
	FinalErrorM    float64
	FixRate        float64
	BeaconsApplied int
	MACSent        int
	MACDelivered   int
	MACBelowSense  int
}

// RunScale sweeps SwarmConfig over ScaleSizes. Options.NumRobots, when
// set, caps the sweep (sizes above it are dropped) rather than rescaling
// each deployment — a size IS the variable here.
func RunScale(ctx context.Context, opts Options) ([]ScaleRow, error) {
	sizes := ScaleSizes()
	if opts.NumRobots > 0 {
		sizes = slices.DeleteFunc(sizes, func(n int) bool { return n > opts.NumRobots })
		if len(sizes) == 0 {
			sizes = []int{opts.NumRobots}
		}
	}
	return sweep(ctx, opts, sizes, func(n int) cocoa.Config {
		cfg := SwarmConfig(n)
		cfg.Seed = opts.seed()
		if opts.DurationS > 0 {
			cfg.DurationS = opts.DurationS
		}
		if opts.CalibrationSamples > 0 {
			cfg.Calibration.Samples = opts.CalibrationSamples
		}
		return cfg
	}, func(_ int, cfg cocoa.Config, res *cocoa.Result) ScaleRow {
		final := 0.0
		if n := len(res.AvgError); n > 0 {
			final = res.AvgError[n-1]
		}
		return ScaleRow{
			Robots:         cfg.NumRobots,
			Equipped:       cfg.NumEquipped,
			AreaSideM:      cfg.Area.Width(),
			MeanErrorM:     res.MeanError(),
			FinalErrorM:    final,
			FixRate:        res.FixRate(),
			BeaconsApplied: res.BeaconsApplied,
			MACSent:        res.MAC.Sent,
			MACDelivered:   res.MAC.Delivered,
			MACBelowSense:  res.MAC.BelowSense,
		}
	})
}
