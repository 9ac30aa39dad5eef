// Command cocoaexp regenerates every figure of the paper's evaluation
// (Section 4) plus the extension and ablation studies from DESIGN.md, and
// prints the series/tables that EXPERIMENTS.md records.
//
// Dispatch is driven by the experiment registry (cocoa.Experiments()):
// each entry runs and renders itself, and the -fig selectors are its Flag
// values, so adding an experiment means one registry entry. Independent
// simulation runs within each experiment fan out across CPUs; -parallel 1
// restores strictly serial execution (the output is byte-identical either
// way — runs are seed-deterministic and results are ordered by sweep
// index, not completion order).
//
// Examples:
//
//	cocoaexp              # the full paper-scale suite (minutes)
//	cocoaexp -quick       # scaled-down smoke suite (seconds)
//	cocoaexp -fig 9       # one figure only
//	cocoaexp -parallel 1  # serial runs (default: all CPUs)
//
// Profiling: -cpuprofile, -memprofile and -trace write pprof/trace files
// covering the whole suite, e.g.
//
//	cocoaexp -quick -fig 4 -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"cocoa"
	"cocoa/internal/obs"
	"cocoa/internal/runner"
	"cocoa/internal/serve"
	"cocoa/internal/telemetry"
)

func main() {
	// Interrupt or SIGTERM cancels the suite cooperatively: in-flight
	// simulation runs observe the context and stop instead of being killed
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cocoaexp:", err)
		os.Exit(1)
	}
}

// run executes the suite args select, writing figures to stdout and
// progress and diagnostics to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	exps := cocoa.Experiments()
	var figs []string
	for _, d := range exps {
		if !slices.Contains(figs, d.Flag) {
			figs = append(figs, d.Flag)
		}
	}
	fs := flag.NewFlagSet("cocoaexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "all", "which figure to regenerate: "+strings.Join(figs, ",")+" or all")
		quick     = fs.Bool("quick", false, "scaled-down runs (12 robots, 300 s)")
		seed      = fs.Int64("seed", 1, "experiment seed")
		parallel  = fs.Int("parallel", 0, "concurrent simulation runs per experiment (0 = all CPUs, 1 = serial)")
		progress  = fs.Bool("progress", false, "print per-run progress while an experiment executes")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole suite to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile (captured at exit) to this file")
		traceOut  = fs.String("trace", "", "write a runtime execution trace to this file")
		telemOut  = fs.String("telemetry", "", "enable runtime telemetry and write the final snapshot as JSON to this file")
		debugAddr = fs.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. localhost:6060")
	)
	logOpts := obs.AddLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logOpts.NewLogger(stderr)
	if err != nil {
		return err
	}

	if *telemOut != "" || *debugAddr != "" {
		telemetry.Default.SetEnabled(true)
	}
	if *debugAddr != "" {
		// Serves expvar + pprof until run returns; the actual address is
		// logged so ":0" works.
		actual, stopDebug, err := serve.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
		logger.Info("debug server listening", "addr", "http://"+actual+"/debug/vars")
	}

	prof := runner.ProfileConfig{CPUPath: *cpuProf, MemPath: *memProf, TracePath: *traceOut}
	if prof.Enabled() {
		stop, err := runner.StartProfiles(prof)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				logger.Error("profile shutdown failed", "error", err.Error())
			}
		}()
	}

	opts := cocoa.ExperimentOptions{Seed: *seed}
	if *quick {
		opts.DurationS = 300
		opts.NumRobots = 12
		opts.CalibrationSamples = 60000
		opts.GridCellM = 4
	}
	opts.Parallelism = *parallel
	if opts.Parallelism <= 0 {
		opts.Parallelism = cocoa.MaxParallelism()
	}
	start := time.Now()
	matched := false
	for _, d := range exps {
		if *fig != "all" && *fig != d.Flag && *fig != d.Name {
			continue
		}
		matched = true
		var before telemetry.Snapshot
		if telemetry.Default.Enabled() && *progress {
			before = telemetry.Default.Snapshot()
		}
		stopProgress := func() {}
		if *progress {
			opts.Gauge = &cocoa.Progress{}
			stopProgress = watchProgress(stderr, opts.Gauge)
		}
		res, err := d.Run(ctx, opts)
		stopProgress()
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		header(stdout, d.Title)
		if err := d.Render(stdout, res); err != nil {
			return err
		}
		if telemetry.Default.Enabled() && *progress {
			printTelemetryDelta(stderr, telemetry.Diff(before, telemetry.Default.Snapshot()))
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (see -fig usage)", *fig)
	}
	fmt.Fprintf(stdout, "\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if *telemOut != "" {
		if err := writeTelemetrySnapshot(*telemOut); err != nil {
			return err
		}
	}
	return nil
}

// watchProgress prints g's completed-run count to w as "\r  run d/t"
// whenever a 100 ms read sees it change. The returned stop ends the reader,
// waits for it to exit (so nothing writes to w after run returns), then
// prints the final count and a newline.
func watchProgress(w io.Writer, g *cocoa.Progress) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		lastDone, lastTotal := 0, 0
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if done, total := g.Run(); done != lastDone || total != lastTotal {
					fmt.Fprintf(w, "\r  run %d/%d", done, total)
					lastDone, lastTotal = done, total
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
		if done, total := g.Run(); total > 0 {
			fmt.Fprintf(w, "\r  run %d/%d\n", done, total)
		}
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}
