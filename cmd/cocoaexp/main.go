// Command cocoaexp regenerates every figure of the paper's evaluation
// (Section 4) plus the extension and ablation studies from DESIGN.md, and
// prints the series/tables that EXPERIMENTS.md records.
//
// Dispatch is driven by the experiment registry (cocoa.Experiments()): each
// registered experiment pairs with a renderer below, so adding an
// experiment means one registry entry and one renderer. Independent
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
	"strings"
	"syscall"
	"time"

	"cocoa"
	"cocoa/internal/obs"
	"cocoa/internal/runner"
	"cocoa/internal/serve"
	"cocoa/internal/telemetry"
)

// stderr carries progress and diagnostics; a package variable so tests
// can capture it. Figure output always goes to run's writer.
var stderr io.Writer = os.Stderr

func main() {
	// Interrupt or SIGTERM cancels the suite cooperatively: in-flight
	// simulation runs observe the context and stop instead of being killed
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cocoaexp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cocoaexp", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "which figure to regenerate: 1,4,5,6,7,8,9,10,ext,power,skew,terrain,reports,failures,faults,scale,baseline,ablations or all")
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
		// Serves expvar + pprof for the rest of the process; the actual
		// address is logged so ":0" works.
		actual, err := serve.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
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
	for _, d := range cocoa.Experiments() {
		if *fig != "all" && *fig != d.Flag && *fig != d.Name {
			continue
		}
		matched = true
		render, ok := renderers[d.Name]
		if !ok {
			return fmt.Errorf("experiment %q has no renderer", d.Name)
		}
		var before telemetry.Snapshot
		if telemetry.Default.Enabled() && *progress {
			before = telemetry.Default.Snapshot()
		}
		stopProgress := func() {}
		if *progress {
			opts.Gauge = &cocoa.Progress{}
			stopProgress = watchProgress(opts.Gauge)
		}
		res, err := d.Run(ctx, opts)
		stopProgress()
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		header(w, d.Title)
		if err := render(w, res); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if telemetry.Default.Enabled() && *progress {
			printTelemetryDelta(stderr, telemetry.Diff(before, telemetry.Default.Snapshot()))
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (see -fig usage)", *fig)
	}
	fmt.Fprintf(w, "\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if *telemOut != "" {
		if err := writeTelemetrySnapshot(*telemOut); err != nil {
			return err
		}
	}
	return nil
}

// renderers maps registry names to output formatting. Every registered
// experiment must have an entry; run() errors out otherwise.
var renderers = map[string]func(io.Writer, any) error{
	"fig1":               renderFig1,
	"fig4":               renderFig4,
	"fig5":               renderFig5,
	"fig6":               renderFig6,
	"fig7":               renderFig7,
	"fig8":               renderFig8,
	"fig9":               renderFig9,
	"fig10":              renderFig10,
	"ext-secondary":      renderExtensionSecondary,
	"ext-power":          renderPowerControl,
	"ext-skew":           renderClockSkew,
	"ext-terrain":        renderTerrain,
	"ext-reports":        renderReports,
	"scale":              renderScale,
	"rob-failures":       renderFailures,
	"rob-replication":    renderReplication,
	"rob-faults":         renderFaults,
	"baseline":           renderBaseline,
	"ablation-pruning":   renderAblationPruning,
	"ablation-k":         renderAblationK,
	"ablation-grid":      renderAblationGrid,
	"ablation-localizer": renderAblationLocalizer,
}

// watchProgress prints g's completed-run count to stderr as "\r  run d/t"
// whenever a 100 ms read sees it change. The returned stop ends the reader,
// waits for it to exit (so nothing writes to stderr after run returns),
// then prints the final count and a newline.
func watchProgress(g *cocoa.Progress) (stop func()) {
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
					fmt.Fprintf(stderr, "\r  run %d/%d", done, total)
					lastDone, lastTotal = done, total
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
		if done, total := g.Run(); total > 0 {
			fmt.Fprintf(stderr, "\r  run %d/%d\n", done, total)
		}
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// result asserts the registry payload to the renderer's concrete type.
func result[T any](v any) (T, error) {
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("unexpected result type %T", v)
	}
	return t, nil
}

func renderFig1(w io.Writer, v any) error {
	res, err := result[*cocoa.Fig1Result](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "RSSI %.0f dBm: gaussian=%v mean=%.1f m (paper Fig 1a: Gaussian)\n",
		res.Strong.RSSIDBm, res.Strong.IsGaussian, res.Strong.MeanDist)
	fmt.Fprintf(w, "RSSI %.0f dBm: gaussian=%v mean=%.1f m (paper Fig 1b: non-Gaussian)\n",
		res.Weak.RSSIDBm, res.Weak.IsGaussian, res.Weak.MeanDist)
	return nil
}

func printSeries(w io.Writer, s cocoa.Series, every int) {
	fmt.Fprintf(w, "  %s: mean=%.2f m", s.Label, s.Mean())
	fmt.Fprintf(w, "  [")
	for i := 0; i < len(s.Times); i += every {
		fmt.Fprintf(w, " %.0fs:%.1f", s.Times[i], s.Values[i])
	}
	fmt.Fprintf(w, " ]\n")
}

func renderFig4(w io.Writer, v any) error {
	series, err := result[[]cocoa.Series](v)
	if err != nil {
		return err
	}
	for _, s := range series {
		printSeries(w, s, max(1, len(s.Times)/10))
		fmt.Fprintf(w, "    final error: %.1f m (paper: >100 m after 30 min)\n",
			s.Values[len(s.Values)-1])
	}
	return nil
}

func renderFig5(w io.Writer, v any) error {
	res, err := result[*cocoa.Fig5Result](v)
	if err != nil {
		return err
	}
	n := len(res.True)
	for i := 0; i < n; i += max(1, n/8) {
		fmt.Fprintf(w, "  t=%4ds true=%v est=%v\n", i, res.True[i], res.Estimated[i])
	}
	fmt.Fprintf(w, "  final gap between real and estimated position: %.1f m\n", res.FinalGapM)
	return nil
}

func renderFig6(w io.Writer, v any) error {
	series, err := result[[]cocoa.Series](v)
	if err != nil {
		return err
	}
	for _, s := range series {
		printSeries(w, s, max(1, len(s.Times)/10))
	}
	return nil
}

func renderFig7(w io.Writer, v any) error {
	results, err := result[[]cocoa.Fig7Result](v)
	if err != nil {
		return err
	}
	for _, r := range results {
		warm := 110.0
		fmt.Fprintf(w, "vmax = %.1f m/s (steady-state means past first window):\n", r.VMax)
		fmt.Fprintf(w, "  odometry-only: %.1f m\n", cocoa.SteadyStateMean(r.Odometry, warm))
		fmt.Fprintf(w, "  rf-only:       %.1f m (paper ~33 m at 2 m/s)\n", cocoa.SteadyStateMean(r.RFOnly, warm))
		fmt.Fprintf(w, "  cocoa:         %.1f m (paper ~6.5 m at 2 m/s)\n", cocoa.SteadyStateMean(r.CoCoA, warm))
	}
	return nil
}

func renderFig8(w io.Writer, v any) error {
	snaps, err := result[[]cocoa.CDFSnapshot](v)
	if err != nil {
		return err
	}
	for _, s := range snaps {
		fmt.Fprintf(w, "  %-24s (t=%.0fs): P90 error = %.1f m; P(err<10m) = %.0f%%\n",
			s.Label, s.TimeS, s.P90, 100*fractionBelow(s, 10))
	}
	fmt.Fprintln(w, "  (paper: >90% of robots below 10 m)")
	return nil
}

func fractionBelow(s cocoa.CDFSnapshot, x float64) float64 {
	frac := 0.0
	for i, e := range s.Errors {
		if e <= x {
			frac = s.Probs[i]
		}
	}
	return frac
}

func renderFig9(w io.Writer, v any) error {
	rows, err := result[[]cocoa.Fig9Row](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %6s %12s %12s %14s %14s %9s\n",
		"T(s)", "mean err(m)", "fix rate", "coord (J)", "no-coord (J)", "savings")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f %12.2f %11.0f%% %14.0f %14.0f %8.1fx\n",
			r.PeriodS, r.MeanErrorM, 100*r.FixRate, r.CoordEnergyJ, r.NoCoordEnergyJ, r.SavingsRatio)
	}
	fmt.Fprintln(w, "  (paper: T=10 worse than T=50; savings 2.6x-8x growing with T)")
	return nil
}

func renderFig10(w io.Writer, v any) error {
	rows, err := result[[]cocoa.Fig10Row](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %9s %12s %12s %10s\n", "equipped", "mean err(m)", "P90 err(m)", "fix rate")
	for _, r := range rows {
		fmt.Fprintf(w, "  %9d %12.2f %12.2f %9.0f%%\n",
			r.Equipped, r.MeanErrorM, r.P90ErrorM, 100*r.FixRate)
	}
	fmt.Fprintln(w, "  (paper: 35 -> 5.2 m, 25 -> 5.9 m, 15 -> ~8 m)")
	return nil
}

func renderExtensionSecondary(w io.Writer, v any) error {
	rows, err := result[[]cocoa.ExtensionRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %9s %15s %15s %12s %12s\n",
		"equipped", "baseline (m)", "secondary (m)", "base fix", "sec fix")
	for _, r := range rows {
		fmt.Fprintf(w, "  %9d %15.2f %15.2f %11.0f%% %11.0f%%\n",
			r.Equipped, r.BaselineMeanM, r.SecondaryMeanM,
			100*r.BaselineFixRate, 100*r.SecondaryFixRate)
	}
	return nil
}

func renderPowerControl(w io.Writer, v any) error {
	rows, err := result[[]cocoa.PowerControlRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %8s %10s %12s %10s %12s\n",
		"tx(dBm)", "range(m)", "mean err(m)", "fix rate", "energy (J)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %8.0f %10.0f %12.2f %9.0f%% %12.0f\n",
			r.TxPowerDBm, r.MeanRangeM, r.MeanErrorM, 100*r.FixRate, r.EnergyJ)
	}
	return nil
}

func renderClockSkew(w io.Writer, v any) error {
	rows, err := result[[]cocoa.ClockSkewRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %12s %6s %12s %10s %14s\n",
		"drift(s/per)", "SYNC", "mean err(m)", "fix rate", "missed-asleep")
	for _, r := range rows {
		fmt.Fprintf(w, "  %12.1f %6v %12.2f %9.0f%% %14d\n",
			r.DriftSigmaS, r.SyncEnabled, r.MeanErrorM, 100*r.FixRate, r.MissedPkts)
	}
	return nil
}

func renderTerrain(w io.Writer, v any) error {
	rows, err := result[[]cocoa.TerrainRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-15s %10s %12s %12s\n", "mode", "roughness", "mean err(m)", "final (m)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-15s %10.0f %12.2f %12.2f\n", r.Mode, r.Amplitude, r.MeanErrorM, r.FinalM)
	}
	return nil
}

func renderReports(w io.Writer, v any) error {
	rows, err := result[[]cocoa.ReportingRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %6s %10s %12s %10s %12s\n",
		"T(s)", "reports", "delivered", "hops avg", "loc err(m)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f %10d %11.0f%% %10.2f %12.2f\n",
			r.PeriodS, r.ReportsSent, 100*r.DeliveryRate, r.MeanHops, r.MeanErrorM)
	}
	return nil
}

func renderScale(w io.Writer, v any) error {
	rows, err := result[[]cocoa.ScaleRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %7s %9s %9s %12s %10s %10s %11s %12s\n",
		"robots", "equipped", "side(m)", "mean err(m)", "fix rate", "sent", "delivered", "belowSense")
	for _, r := range rows {
		fmt.Fprintf(w, "  %7d %9d %9.0f %12.2f %9.0f%% %10d %11d %12d\n",
			r.Robots, r.Equipped, r.AreaSideM, r.MeanErrorM, 100*r.FixRate,
			r.MACSent, r.MACDelivered, r.MACBelowSense)
	}
	fmt.Fprintln(w, "  (expected: per-frame MAC cost stays local, not O(team); error degrades gently, no collapse)")
	return nil
}

func renderFailures(w io.Writer, v any) error {
	rows, err := result[[]cocoa.FailureRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %10s %15s %14s %10s\n", "failed", "before (m)", "after (m)", "fix rate")
	for _, r := range rows {
		fmt.Fprintf(w, "  %10d %15.2f %14.2f %9.0f%%\n",
			r.FailedEquipped, r.MeanBeforeM, r.MeanAfterM, 100*r.FixRate)
	}
	return nil
}

func renderFaults(w io.Writer, v any) error {
	rows, err := result[[]cocoa.FaultRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %7s %8s %12s %11s %10s %8s %8s\n",
		"loss", "crashed", "mean err(m)", "uncovered", "fix rate", "drops", "crashes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f%% %7.0f%% %12.2f %10.0f%% %9.0f%% %8d %8d\n",
			100*r.LossRate, 100*r.CrashFraction, r.MeanErrorM,
			100*r.Uncovered, 100*r.FixRate, r.FaultDrops, r.Crashes)
	}
	fmt.Fprintln(w, "  (expected: error and uncovered fraction rise with fault intensity; no collapse)")
	return nil
}

func renderReplication(w io.Writer, v any) error {
	rep, err := result[cocoa.Replication](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d seeds: mean err %.2f m (std %.2f, min %.2f, max %.2f)\n",
		rep.Seeds, rep.MeanErrorM, rep.StdErrorM, rep.MinM, rep.MaxM)
	return nil
}

func renderBaseline(w io.Writer, v any) error {
	rows, err := result[[]cocoa.BaselineRow](v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-26s %9s %12s %12s %12s\n",
		"system", "equipped", "mean err(m)", "final err(m)", "mobility")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %9d %12.2f %12.2f %11.0f%%\n",
			r.System, r.EquippedRobots, r.MeanErrorM, r.FinalErrorM, r.MobilityDutyPct)
	}
	return nil
}

func renderAblationPruning(w io.Writer, v any) error {
	rows, err := result[[]cocoa.AblationPruningRow](v)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  pruning=%-5v dataTx=%4d delivered=%4d queries=%4d forwarders=%3d err=%.2fm\n",
			r.Pruning, r.DataSent, r.DataDelivered, r.QueriesSent, r.Forwarders, r.MeanErrorM)
	}
	return nil
}

func renderAblationK(w io.Writer, v any) error {
	rows, err := result[[]cocoa.AblationKRow](v)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  k=%d: err=%.2fm fixRate=%.0f%% energy=%.0fJ framesSent=%d\n",
			r.K, r.MeanErrorM, 100*r.FixRate, r.CoordEnergyJ, r.BeaconsSent)
	}
	return nil
}

func renderAblationGrid(w io.Writer, v any) error {
	rows, err := result[[]cocoa.AblationGridRow](v)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  cell=%.0fm (%6d cells): err=%.2fm\n", r.CellM, r.WallSenseN, r.MeanErrorM)
	}
	return nil
}

func renderAblationLocalizer(w io.Writer, v any) error {
	rows, err := result[[]cocoa.AblationLocalizerRow](v)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  backend=%-8s err=%.2fm fixRate=%.0f%%\n",
			r.Backend, r.MeanErrorM, 100*r.FixRate)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
