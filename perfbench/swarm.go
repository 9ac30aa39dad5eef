package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cocoa"
	"cocoa/internal/caltable"
)

// swarmSeeds is how many configs swarm-1000 cycles through: per-seed mean
// error varies by about 7%, so the accuracy guard averages several.
const swarmSeeds = 8

// swarm1000 runs a swarm twenty times the paper's team: one operation is
// cocoa.NewTeam(cocoa.SwarmConfig(1000)), which is set-up, then
// Team.RunContext, which is timed. SwarmConfig keeps the paper's density:
// EKF backend, -10 dBm beacons, T = 20 s, the grid neighbor index and the
// default intra-run UpdateWorkers. Operations cycle through swarmSeeds
// config seeds.
//
// Loads: mac and radio (receptions and RSSI draws), sim (the event heap),
// mobility, ekf and cocoa; RNG stream seeding in NewTeam lands in set-up.
// caltable is built before the first operation and cached after it.
// Bypasses: bayes (EKF backend), runner (single runs), serve and checkpoint.
type swarm1000 struct {
	cfgs []cocoa.Config
	// want holds each seed's expected output: the kept values for the
	// default seed, otherwise the first output this process saw.
	want map[int64]swarmOutput
}

// swarmOutput is the deterministic part of a run the benchmark compares.
type swarmOutput struct {
	meanErrM                      float64
	macSent, macDelivered, beacon int
}

func swarmOutputOf(res *cocoa.Result) swarmOutput {
	return swarmOutput{meanErrM: res.MeanError(), macSent: res.MAC.Sent,
		macDelivered: res.MAC.Delivered, beacon: res.BeaconsApplied}
}

// swarmDefault holds the values kept for the default seed, by config seed,
// from this repository's code as of the benchmark's introduction.
var swarmDefault = map[int64]swarmOutput{
	1: {meanErrM: 73.05286620236193, macSent: 9180, macDelivered: 24446, beacon: 11852},
	2: {meanErrM: 62.50186973072103, macSent: 9270, macDelivered: 24386, beacon: 12240},
	3: {meanErrM: 65.86669283305287, macSent: 9220, macDelivered: 24529, beacon: 12217},
	4: {meanErrM: 62.00143453431043, macSent: 9143, macDelivered: 24398, beacon: 12589},
	5: {meanErrM: 75.38322915835536, macSent: 9180, macDelivered: 24408, beacon: 12129},
	6: {meanErrM: 65.02245730202412, macSent: 9012, macDelivered: 24067, beacon: 12356},
	7: {meanErrM: 63.46380046464693, macSent: 9170, macDelivered: 25398, beacon: 12554},
	8: {meanErrM: 67.83848513577031, macSent: 9362, macDelivered: 24897, beacon: 12191},
}

func (w *swarm1000) prepare(ctx context.Context, seed int64) error {
	w.want = map[int64]swarmOutput{}
	for i := int64(1); i <= swarmSeeds; i++ {
		cfg := cocoa.SwarmConfig(1000)
		cfg.Seed = seed*swarmSeeds + i
		w.cfgs = append(w.cfgs, cfg)
		if seed == 0 {
			w.want[cfg.Seed] = swarmDefault[cfg.Seed]
		}
	}
	return nil
}

func (w *swarm1000) run(ctx context.Context, p *pass) (*outcome, error) {
	o := newOutcome()
	// Build the calibration tables up front, as the first NewTeam of each
	// seed would, so every timed NewTeam sees a warm cache.
	caltable.ResetShared()
	for _, cfg := range w.cfgs {
		s := time.Now()
		if _, err := caltable.Shared(cfg.Radio, cfg.Calibration, cfg.Seed); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		p.spans.add(0, 0, "caltable.Shared", s, time.Now())
	}
	// One untimed operation lets the allocator and caches settle.
	if _, _, err := w.op(ctx, &pass{}, w.cfgs[0], nil); err != nil {
		return nil, err
	}

	if err := p.reg.begin(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(p.duration())
	final := map[int64]*cocoa.Result{}
	for o.attempted == 0 || time.Now().Before(deadline) {
		cfg := w.cfgs[o.attempted%len(w.cfgs)]
		t0 := time.Now()
		res, runS, err := w.op(ctx, p, cfg, o)
		p.ref.after(time.Since(t0))
		o.attempted++
		if err == nil {
			err = w.check(cfg.Seed, res)
		}
		if err != nil {
			o.fail(err)
			continue
		}
		o.runs++
		o.busyS += runS
		final[cfg.Seed] = res
	}
	if err := p.reg.end(); err != nil {
		return nil, err
	}
	var errs []float64
	var totals runTotals
	for _, cfg := range w.cfgs {
		if res, ok := final[cfg.Seed]; ok {
			errs = append(errs, res.MeanError())
			totals.add(res)
		}
	}
	o.meanErrM = mean(errs)
	o.report["run_s"] = median(o.opMs) / 1e3
	o.layer["mrmm.data_delivery_ratio"] = totals.mrmmRatio()
	return o, nil
}

// op builds and runs one team. NewTeam is recorded as set-up, RunContext
// as the operation; o is nil for the unrecorded warm-up.
func (w *swarm1000) op(ctx context.Context, p *pass, cfg cocoa.Config, o *outcome) (*cocoa.Result, float64, error) {
	parent := p.spans.reserve()
	t0 := time.Now()
	team, err := cocoa.NewTeam(cfg)
	t1 := time.Now()
	p.spans.add(0, parent, "NewTeam", t0, t1)
	if err != nil {
		return nil, 0, fmt.Errorf("NewTeam: %w", err)
	}
	res, err := team.RunContext(ctx)
	t2 := time.Now()
	p.spans.add(0, parent, "RunContext", t1, t2)
	p.spans.add(parent, 0, "op", t0, t2)
	if o != nil {
		o.setupS = append(o.setupS, t1.Sub(t0).Seconds())
		o.opMs = append(o.opMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
		o.opStart = append(o.opStart, t1)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("RunContext: %w", err)
	}
	return res, t2.Sub(t1).Seconds(), nil
}

// check compares a run with its seed's kept values (default seed) or with
// the first run of that seed in this process (runs are deterministic).
func (w *swarm1000) check(seed int64, res *cocoa.Result) error {
	got := swarmOutputOf(res)
	if math.IsNaN(got.meanErrM) || got.macSent == 0 || got.macDelivered == 0 || got.beacon == 0 {
		return fmt.Errorf("degenerate swarm run at seed %d: %+v", seed, got)
	}
	want, ok := w.want[seed]
	if !ok {
		w.want[seed] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("swarm run at seed %d gives %+v, want %+v", seed, got, want)
	}
	return nil
}
