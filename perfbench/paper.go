package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cocoa"
	"cocoa/internal/caltable"
)

// sweepSeeds is the width of the rob-replication experiment: it runs
// DefaultConfig at seeds Seed .. Seed+sweepSeeds-1.
const sweepSeeds = 5

// setupReps is how many times paper-sweep rebuilds its calibration tables
// to report a median set-up time.
const setupReps = 5

// paperSweep regenerates the paper's own deployment the way cocoaexp does:
// the rob-replication registry experiment through its descriptor, five
// seeds of DefaultConfig (50 robots, 25 equipped, a 200 m square,
// T = 100 s, 1800 s runs) with Parallelism and UpdateWorkers at their
// defaults, one sweep at a time (closed loop, one client). Set-up builds
// the seed list's calibration tables.
//
// Loads: bayes (the grid update dominates), runner (fans the five runs
// out while the intra-run update pool nests under it), cocoa, sim,
// mobility, odometry and mrmm; caltable in set-up. mac is small because
// 50 robots share one channel. Bypasses: ekf, serve and checkpoint.
type paperSweep struct {
	desc cocoa.ExperimentDescriptor
	opts cocoa.ExperimentOptions
	cfgs []cocoa.Config

	// want is the sweep's output aggregated from direct RunContext calls of
	// the same configs; totals are summed over those runs.
	want   cocoa.Replication
	totals runTotals
	// refErr is set when the direct runs disagree with the values kept for
	// the default seed; every operation then counts as failed.
	refErr error
}

// runTotals are deterministic protocol counters summed over runs.
type runTotals struct {
	macSent, macDelivered, beaconsApplied int
	mrmmSent, mrmmDelivered               int
}

func (t *runTotals) add(res *cocoa.Result) {
	t.macSent += res.MAC.Sent
	t.macDelivered += res.MAC.Delivered
	t.beaconsApplied += res.BeaconsApplied
	t.mrmmSent += res.MRMM.DataSent
	t.mrmmDelivered += res.MRMM.DataDelivered
}

// mrmmRatio is MRMM data deliveries to group members per data
// (re)broadcast: useful outcomes per transmission, so it can exceed 1.
func (t runTotals) mrmmRatio() float64 {
	if t.mrmmSent == 0 {
		return 0
	}
	return float64(t.mrmmDelivered) / float64(t.mrmmSent)
}

// Values kept for the default seed (experiment seed 1). The replication
// row is the one results_full.txt prints; the totals are summed over the
// five runs of this repository's code as of the benchmark's introduction.
var paperDefault = struct {
	rep    cocoa.Replication
	totals runTotals
}{
	rep: cocoa.Replication{Seeds: 5, MeanErrorM: 7.184578209795397, StdErrorM: 0.4596034373731245,
		MinM: 6.562375433668109, MaxM: 7.61808058693501},
	totals: runTotals{macSent: 16007, macDelivered: 507597, beaconsApplied: 113771,
		mrmmSent: 2497, mrmmDelivered: 4410},
}

func (w *paperSweep) prepare(ctx context.Context, seed int64) error {
	for _, d := range cocoa.Experiments() {
		if d.Name == "rob-replication" {
			w.desc = d
		}
	}
	if w.desc.Run == nil {
		return fmt.Errorf("rob-replication experiment not registered")
	}
	w.opts = cocoa.ExperimentOptions{Seed: seed + 1, Parallelism: cocoa.MaxParallelism()}
	w.cfgs = make([]cocoa.Config, sweepSeeds)
	for i := range w.cfgs {
		cfg := cocoa.DefaultConfig()
		cfg.Seed = w.opts.Seed + int64(i)
		w.cfgs[i] = cfg
	}

	// The reference: every run of the sweep executed directly, at most
	// MaxParallelism at a time.
	results := make([]*cocoa.Result, len(w.cfgs))
	errs := make([]error, len(w.cfgs))
	sem := make(chan struct{}, cocoa.MaxParallelism())
	var wg sync.WaitGroup
	for i := range w.cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = cocoa.RunContext(ctx, w.cfgs[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("reference runs: %w", err)
	}

	w.want = cocoa.Replication{Seeds: len(results), MinM: math.Inf(1), MaxM: math.Inf(-1)}
	vals := make([]float64, len(results))
	for i, res := range results {
		vals[i] = res.MeanError()
		w.want.MeanErrorM += vals[i]
		w.want.MinM = math.Min(w.want.MinM, vals[i])
		w.want.MaxM = math.Max(w.want.MaxM, vals[i])
		w.totals.add(res)
	}
	w.want.MeanErrorM /= float64(len(vals))
	var m2 float64
	for _, v := range vals {
		d := v - w.want.MeanErrorM
		m2 += d * d
	}
	w.want.StdErrorM = math.Sqrt(m2 / float64(len(vals)-1))

	if seed == 0 && (w.want != paperDefault.rep || w.totals != paperDefault.totals) {
		w.refErr = fmt.Errorf("direct runs give %+v %+v, kept values for the default seed are %+v %+v",
			w.want, w.totals, paperDefault.rep, paperDefault.totals)
	}
	return nil
}

func (w *paperSweep) run(ctx context.Context, p *pass) (*outcome, error) {
	o := newOutcome()
	p.ref.width = w.opts.Parallelism
	for rep := 0; rep < setupReps; rep++ {
		caltable.ResetShared()
		t0 := time.Now()
		for _, cfg := range w.cfgs {
			s := time.Now()
			if _, err := caltable.Shared(cfg.Radio, cfg.Calibration, cfg.Seed); err != nil {
				return nil, fmt.Errorf("calibration: %w", err)
			}
			p.spans.add(0, 0, "caltable.Shared", s, time.Now())
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	if err := p.reg.begin(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(p.duration())
	for o.attempted == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		v, err := w.desc.Run(ctx, w.opts)
		t1 := time.Now()
		p.spans.add(0, 0, "Descriptor.Run", t0, t1)
		o.attempted++
		o.opMs = append(o.opMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		o.opStart = append(o.opStart, t0)
		o.busyS += t1.Sub(t0).Seconds()
		p.ref.after(t1.Sub(t0))
		if err == nil {
			err = w.check(v)
		}
		if err != nil {
			o.fail(err)
			continue
		}
		o.runs += sweepSeeds
	}
	if err := p.reg.end(); err != nil {
		return nil, err
	}
	o.meanErrM = w.want.MeanErrorM
	o.layer["mrmm.data_delivery_ratio"] = w.totals.mrmmRatio()
	o.layer["runner.parallelism"] = float64(w.opts.Parallelism)
	return o, nil
}

// check compares one sweep's output with the direct runs' aggregate:
// mean, min and max exactly, the standard deviation to rounding.
func (w *paperSweep) check(v any) error {
	if w.refErr != nil {
		return w.refErr
	}
	got, ok := v.(cocoa.Replication)
	if !ok {
		return fmt.Errorf("rob-replication returned %T", v)
	}
	want := w.want
	if got.Seeds != want.Seeds || got.MeanErrorM != want.MeanErrorM ||
		got.MinM != want.MinM || got.MaxM != want.MaxM ||
		math.Abs(got.StdErrorM-want.StdErrorM) > 1e-12*want.StdErrorM {
		return fmt.Errorf("sweep output %+v, direct runs give %+v", got, want)
	}
	return nil
}
