package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with tracing off. The
// norm_ timings are scaled to the reference host (see hostRef); their raw
// values are in the report.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"norm_runs_per_s", "runs/s"},
	{"norm_op_p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"mean_err_m", "m"},
}

// cpuLayers are the layers whose CPU share the ledger reports: the repo's
// packages (internal/telemetry folded into obs), plus runtime and std.
var cpuLayers = []string{
	"bayes", "mac", "radio", "network", "sim", "mobility", "odometry", "ekf",
	"mrmm", "caltable", "cocoa", "runner", "serve", "checkpoint", "obs",
	"runtime", "std",
}

// perLayer are the metrics of the traced pass, in ledger order.
var perLayer = func() []metricDef {
	defs := make([]metricDef, 0, 64)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	return append(defs,
		metricDef{"bayes.applies_per_run", "count"},
		metricDef{"bayes.us_per_apply", "us"},
		metricDef{"bayes.renorm_taken_ratio", "ratio"},
		metricDef{"mac.frames_per_run", "count"},
		metricDef{"mac.visits_per_frame", "count"},
		metricDef{"mac.visit_yield", "ratio"},
		metricDef{"mac.collided_ratio", "ratio"},
		metricDef{"sim.events_per_run", "count"},
		metricDef{"sim.heap_depth_mean", "count"},
		metricDef{"mrmm.data_delivery_ratio", "ratio"},
		metricDef{"caltable.calibrate_s", "s"},
		metricDef{"cocoa.new_team_s", "s"},
		metricDef{"cocoa.flush_busy_mean", "count"},
		metricDef{"cocoa.scratch_reuse_ratio", "ratio"},
		metricDef{"runner.parallel_eff", "ratio"},
		metricDef{"runner.job_wall_ms_mean", "ms"},
		metricDef{"runner.queue_wait_ms_mean", "ms"},
		metricDef{"serve.submit_ms_p50", "ms"},
		metricDef{"serve.queue_wait_ms_p50", "ms"},
		metricDef{"serve.exec_ms_p50", "ms"},
		metricDef{"serve.result_fetch_ms_p50", "ms"},
		metricDef{"serve.result_kb_mean", "KB"},
		metricDef{"serve.events_lines_per_job", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"trace_overhead", "ratio"},
	)
}()

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the untraced metrics of one pass.
func endToEndValues(o *outcome, p *pass) map[string]float64 {
	normMs := make([]float64, len(o.opMs))
	for i, ms := range o.opMs {
		normMs[i] = ms * p.ref.localScale(o.opStart[i], ms)
	}
	return map[string]float64{
		"setup_s":         median(o.setupS),
		"norm_runs_per_s": ratio(float64(o.runs), o.busyS*p.ref.rateScale()),
		"norm_op_p50_ms":  median(normMs),
		"alloc_mb_per_op": ratio((p.reg.rtDelta["/gc/heap/allocs:bytes"]-p.ref.allocB)/1e6, float64(o.attempted)),
		"mean_err_m":      o.meanErrM,
	}
}

// ledger computes the per-layer metrics of a traced pass. untraced is the
// same workload's untraced pass in this process, for trace_overhead.
func ledger(p *pass, o, untraced *outcome) map[string]float64 {
	r := &p.reg
	sh := shares(r.cpu)
	out := make(map[string]float64, len(perLayer))
	for _, l := range cpuLayers {
		out[l+".cpu_share"] = sh[l]
	}
	runs := float64(o.runs)

	applies := r.counter("bayes.apply.generic") + r.counter("bayes.apply.lerp") + r.counter("bayes.apply.nearest")
	out["bayes.applies_per_run"] = ratio(applies, runs)
	out["bayes.us_per_apply"] = ratio(float64(r.cpu["bayes"])/1e3, applies)
	taken := r.counter("bayes.renorm_taken")
	out["bayes.renorm_taken_ratio"] = ratio(taken, taken+r.counter("bayes.renorm_deferred"))

	sent, visits := r.counter("mac.sent"), r.counter("mac.receiver_visits")
	delivered, collided := r.counter("mac.delivered"), r.counter("mac.collided")
	out["mac.frames_per_run"] = ratio(sent, runs)
	out["mac.visits_per_frame"] = ratio(visits, sent)
	out["mac.visit_yield"] = ratio(delivered, visits)
	out["mac.collided_ratio"] = ratio(collided, delivered+collided)

	out["sim.events_per_run"] = ratio(r.counter("sim.events_dispatched"), runs)
	out["sim.heap_depth_mean"] = r.histMean("sim.heap_depth")
	out["mrmm.data_delivery_ratio"] = o.layer["mrmm.data_delivery_ratio"]

	out["caltable.calibrate_s"] = median(p.spans.durations("caltable.Shared"))
	out["cocoa.new_team_s"] = median(p.spans.durations("NewTeam"))
	out["cocoa.flush_busy_mean"] = r.histMean("cocoa.flush_busy_robots")
	out["cocoa.scratch_reuse_ratio"] = ratio(r.counter("cocoa.scratch_reuse"), runs)

	jobs, jobWallS := r.spanStat("runner.job_wall")
	waits, waitS := r.spanStat("runner.queue_wait")
	var sweepS float64
	for _, d := range p.spans.durations("Descriptor.Run") {
		sweepS += d
	}
	out["runner.parallel_eff"] = ratio(jobWallS, sweepS*o.layer["runner.parallelism"])
	out["runner.job_wall_ms_mean"] = ratio(jobWallS*1e3, jobs)
	out["runner.queue_wait_ms_mean"] = ratio(waitS*1e3, waits)

	for _, k := range []string{"serve.submit_ms_p50", "serve.queue_wait_ms_p50", "serve.exec_ms_p50",
		"serve.result_fetch_ms_p50", "serve.result_kb_mean", "serve.events_lines_per_job"} {
		out[k] = o.layer[k]
	}
	out["serve.rejected"] = r.counter("serve.jobs_rejected_full") +
		r.counter("serve.jobs_rejected_draining") + r.counter("serve.jobs_rejected_invalid")

	out["runtime.gc_cpu_share"] = ratio(r.rtDelta["/cpu/classes/gc/total:cpu-seconds"],
		r.rtDelta["/cpu/classes/total:cpu-seconds"]-r.rtDelta["/cpu/classes/idle:cpu-seconds"])
	out["runtime.gc_cycles_per_op"] = ratio(r.rtDelta["/gc/cycles/total:gc-cycles"], float64(o.attempted))
	out["trace_overhead"] = ratio(median(o.opMs), median(untraced.opMs))
	return out
}

// printShares writes every sampled layer's CPU share, largest first.
func printShares(w io.Writer, cpu map[string]int64) {
	sh := shares(cpu)
	var b strings.Builder
	for _, l := range sortedLayers(sh) {
		fmt.Fprintf(&b, " %s=%.4f", l, sh[l])
	}
	fmt.Fprintf(w, "cpu shares:%s\n", b.String())
}
