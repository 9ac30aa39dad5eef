package scenario

import (
	"context"
	"math"

	"cocoa/internal/cocoa"
)

// FailureRow is one failure-injection outcome: the configured number of
// equipped robots die a third of the way into the run.
type FailureRow struct {
	FailedEquipped int
	MeanBeforeM    float64
	MeanAfterM     float64
	FixRate        float64
}

// RunFailureInjection kills growing numbers of equipped robots mid-run —
// the paper's search-and-rescue setting makes anchor loss a first-class
// concern. CoCoA should degrade gracefully: survivors keep beaconing and
// accuracy settles at the level of the reduced anchor set (Figure 10's
// curve, reached dynamically).
func RunFailureInjection(ctx context.Context, opts Options) ([]FailureRow, error) {
	return sweep(ctx, opts, []float64{0, 0.4, 0.8}, func(frac float64) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		opts.apply(&cfg)
		cfg.FailEquippedCount = int(frac * float64(cfg.NumEquipped))
		cfg.FailAtS = cfg.DurationS / 3
		return cfg
	}, func(_ float64, cfg cocoa.Config, res *cocoa.Result) FailureRow {
		failAt := float64(cfg.FailAtS)
		settle := failAt + float64(cfg.BeaconPeriodS)
		var before, after float64
		nb, na := 0, 0
		for j, t := range res.Times {
			switch {
			case t < failAt:
				before += res.AvgError[j]
				nb++
			case t > settle:
				after += res.AvgError[j]
				na++
			}
		}
		row := FailureRow{FailedEquipped: cfg.FailEquippedCount, FixRate: res.FixRate()}
		if nb > 0 {
			row.MeanBeforeM = before / float64(nb)
		}
		if na > 0 {
			row.MeanAfterM = after / float64(na)
		}
		return row
	})
}

// Replication holds cross-seed statistics of the headline metric,
// quantifying the run-to-run variance a single-seed figure hides.
type Replication struct {
	Seeds      int
	MeanErrorM float64 // mean of per-seed means
	StdErrorM  float64 // std of per-seed means
	MinM       float64
	MaxM       float64
}

// RunReplication repeats the default CoCoA deployment across seeds — the
// embarrassingly parallel workload the engine was built for: every seed is
// an independent run and cross-seed statistics need many of them.
func RunReplication(ctx context.Context, opts Options, seeds int) (Replication, error) {
	if seeds <= 0 {
		seeds = 5
	}
	seedList := make([]int64, seeds)
	for s := range seedList {
		seedList[s] = opts.seed() + int64(s)
	}
	vals, err := sweep(ctx, opts, seedList, func(seed int64) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		opts.apply(&cfg)
		cfg.Seed = seed
		return cfg
	}, func(_ int64, _ cocoa.Config, res *cocoa.Result) float64 {
		return res.MeanError()
	})
	if err != nil {
		return Replication{}, err
	}
	rep := Replication{Seeds: seeds, MinM: math.Inf(1), MaxM: math.Inf(-1)}
	for _, v := range vals {
		rep.MeanErrorM += v
		rep.MinM = math.Min(rep.MinM, v)
		rep.MaxM = math.Max(rep.MaxM, v)
	}
	rep.MeanErrorM /= float64(seeds)
	var m2 float64
	for _, v := range vals {
		d := v - rep.MeanErrorM
		m2 += d * d
	}
	if seeds > 1 {
		rep.StdErrorM = math.Sqrt(m2 / float64(seeds-1))
	}
	return rep, nil
}

// TerrainRow compares smooth and rough ground for one localization mode.
type TerrainRow struct {
	Mode       string
	Amplitude  float64
	MeanErrorM float64
	FinalM     float64
}

// RunExtensionTerrain quantifies the paper's introduction claim that
// uneven surfaces exacerbate odometry error — and that CoCoA's periodic
// RF fixes neutralize it: odometry-only degrades with terrain roughness,
// CoCoA barely moves.
func RunExtensionTerrain(ctx context.Context, opts Options) ([]TerrainRow, error) {
	type point struct {
		mode cocoa.Mode
		amp  float64
	}
	var points []point
	for _, mode := range []cocoa.Mode{cocoa.ModeOdometryOnly, cocoa.ModeCombined} {
		for _, amp := range []float64{0, 3} {
			points = append(points, point{mode, amp})
		}
	}
	return sweep(ctx, opts, points, func(p point) cocoa.Config {
		cfg := cocoa.DefaultConfig()
		cfg.Mode = p.mode
		cfg.TerrainAmplitude = p.amp
		opts.apply(&cfg)
		return cfg
	}, func(p point, _ cocoa.Config, res *cocoa.Result) TerrainRow {
		return TerrainRow{
			Mode:       p.mode.String(),
			Amplitude:  p.amp,
			MeanErrorM: res.MeanError(),
			FinalM:     res.AvgError[len(res.AvgError)-1],
		}
	})
}
