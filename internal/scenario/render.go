package scenario

import (
	"fmt"
	"io"
)

// The renderers write one experiment's section body as cmd/cocoaexp prints
// it and results_full.txt records it; each registry entry pairs its runner
// with one of them, so the row type they take is the one the runner returns.

func renderFig1(w io.Writer, res *Fig1Result) {
	fmt.Fprintf(w, "RSSI %.0f dBm: gaussian=%v mean=%.1f m (paper Fig 1a: Gaussian)\n",
		res.Strong.RSSIDBm, res.Strong.IsGaussian, res.Strong.MeanDist)
	fmt.Fprintf(w, "RSSI %.0f dBm: gaussian=%v mean=%.1f m (paper Fig 1b: non-Gaussian)\n",
		res.Weak.RSSIDBm, res.Weak.IsGaussian, res.Weak.MeanDist)
}

func printSeries(w io.Writer, s Series, every int) {
	fmt.Fprintf(w, "  %s: mean=%.2f m", s.Label, s.Mean())
	fmt.Fprintf(w, "  [")
	for i := 0; i < len(s.Times); i += every {
		fmt.Fprintf(w, " %.0fs:%.1f", s.Times[i], s.Values[i])
	}
	fmt.Fprintf(w, " ]\n")
}

func renderFig4(w io.Writer, series []Series) {
	for _, s := range series {
		printSeries(w, s, max(1, len(s.Times)/10))
		fmt.Fprintf(w, "    final error: %.1f m (paper: >100 m after 30 min)\n",
			s.Values[len(s.Values)-1])
	}
}

func renderFig5(w io.Writer, res *Fig5Result) {
	n := len(res.True)
	for i := 0; i < n; i += max(1, n/8) {
		fmt.Fprintf(w, "  t=%4ds true=%v est=%v\n", i, res.True[i], res.Estimated[i])
	}
	fmt.Fprintf(w, "  final gap between real and estimated position: %.1f m\n", res.FinalGapM)
}

func renderFig6(w io.Writer, series []Series) {
	for _, s := range series {
		printSeries(w, s, max(1, len(s.Times)/10))
	}
}

func renderFig7(w io.Writer, results []Fig7Result) {
	const warm = 110.0
	for _, r := range results {
		fmt.Fprintf(w, "vmax = %.1f m/s (steady-state means past first window):\n", r.VMax)
		fmt.Fprintf(w, "  odometry-only: %.1f m\n", SteadyStateMean(r.Odometry, warm))
		fmt.Fprintf(w, "  rf-only:       %.1f m (paper ~33 m at 2 m/s)\n", SteadyStateMean(r.RFOnly, warm))
		fmt.Fprintf(w, "  cocoa:         %.1f m (paper ~6.5 m at 2 m/s)\n", SteadyStateMean(r.CoCoA, warm))
	}
}

func renderFig8(w io.Writer, snaps []CDFSnapshot) {
	for _, s := range snaps {
		fmt.Fprintf(w, "  %-24s (t=%.0fs): P90 error = %.1f m; P(err<10m) = %.0f%%\n",
			s.Label, s.TimeS, s.P90, 100*fractionBelow(s, 10))
	}
	fmt.Fprintln(w, "  (paper: >90% of robots below 10 m)")
}

// fractionBelow reads the CDF at x: the probability of the last error
// sample not above it.
func fractionBelow(s CDFSnapshot, x float64) float64 {
	frac := 0.0
	for i, e := range s.Errors {
		if e <= x {
			frac = s.Probs[i]
		}
	}
	return frac
}

func renderFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintf(w, "  %6s %12s %12s %14s %14s %9s\n",
		"T(s)", "mean err(m)", "fix rate", "coord (J)", "no-coord (J)", "savings")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f %12.2f %11.0f%% %14.0f %14.0f %8.1fx\n",
			r.PeriodS, r.MeanErrorM, 100*r.FixRate, r.CoordEnergyJ, r.NoCoordEnergyJ, r.SavingsRatio)
	}
	fmt.Fprintln(w, "  (paper: T=10 worse than T=50; savings 2.6x-8x growing with T)")
}

func renderFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "  %9s %12s %12s %10s\n", "equipped", "mean err(m)", "P90 err(m)", "fix rate")
	for _, r := range rows {
		fmt.Fprintf(w, "  %9d %12.2f %12.2f %9.0f%%\n",
			r.Equipped, r.MeanErrorM, r.P90ErrorM, 100*r.FixRate)
	}
	fmt.Fprintln(w, "  (paper: 35 -> 5.2 m, 25 -> 5.9 m, 15 -> ~8 m)")
}

func renderExtensionSecondary(w io.Writer, rows []ExtensionRow) {
	fmt.Fprintf(w, "  %9s %15s %15s %12s %12s\n",
		"equipped", "baseline (m)", "secondary (m)", "base fix", "sec fix")
	for _, r := range rows {
		fmt.Fprintf(w, "  %9d %15.2f %15.2f %11.0f%% %11.0f%%\n",
			r.Equipped, r.BaselineMeanM, r.SecondaryMeanM,
			100*r.BaselineFixRate, 100*r.SecondaryFixRate)
	}
}

func renderPowerControl(w io.Writer, rows []PowerControlRow) {
	fmt.Fprintf(w, "  %8s %10s %12s %10s %12s\n",
		"tx(dBm)", "range(m)", "mean err(m)", "fix rate", "energy (J)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %8.0f %10.0f %12.2f %9.0f%% %12.0f\n",
			r.TxPowerDBm, r.MeanRangeM, r.MeanErrorM, 100*r.FixRate, r.EnergyJ)
	}
}

func renderClockSkew(w io.Writer, rows []ClockSkewRow) {
	fmt.Fprintf(w, "  %12s %6s %12s %10s %14s\n",
		"drift(s/per)", "SYNC", "mean err(m)", "fix rate", "missed-asleep")
	for _, r := range rows {
		fmt.Fprintf(w, "  %12.1f %6v %12.2f %9.0f%% %14d\n",
			r.DriftSigmaS, r.SyncEnabled, r.MeanErrorM, 100*r.FixRate, r.MissedPkts)
	}
}

func renderTerrain(w io.Writer, rows []TerrainRow) {
	fmt.Fprintf(w, "  %-15s %10s %12s %12s\n", "mode", "roughness", "mean err(m)", "final (m)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-15s %10.0f %12.2f %12.2f\n", r.Mode, r.Amplitude, r.MeanErrorM, r.FinalM)
	}
}

func renderReports(w io.Writer, rows []ReportingRow) {
	fmt.Fprintf(w, "  %6s %10s %12s %10s %12s\n",
		"T(s)", "reports", "delivered", "hops avg", "loc err(m)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f %10d %11.0f%% %10.2f %12.2f\n",
			r.PeriodS, r.ReportsSent, 100*r.DeliveryRate, r.MeanHops, r.MeanErrorM)
	}
}

func renderScale(w io.Writer, rows []ScaleRow) {
	fmt.Fprintf(w, "  %7s %9s %9s %12s %10s %10s %11s %12s\n",
		"robots", "equipped", "side(m)", "mean err(m)", "fix rate", "sent", "delivered", "belowSense")
	for _, r := range rows {
		fmt.Fprintf(w, "  %7d %9d %9.0f %12.2f %9.0f%% %10d %11d %12d\n",
			r.Robots, r.Equipped, r.AreaSideM, r.MeanErrorM, 100*r.FixRate,
			r.MACSent, r.MACDelivered, r.MACBelowSense)
	}
	fmt.Fprintln(w, "  (expected: per-frame MAC cost stays local, not O(team); error degrades gently, no collapse)")
}

func renderFailures(w io.Writer, rows []FailureRow) {
	fmt.Fprintf(w, "  %10s %15s %14s %10s\n", "failed", "before (m)", "after (m)", "fix rate")
	for _, r := range rows {
		fmt.Fprintf(w, "  %10d %15.2f %14.2f %9.0f%%\n",
			r.FailedEquipped, r.MeanBeforeM, r.MeanAfterM, 100*r.FixRate)
	}
}

func renderFaults(w io.Writer, rows []FaultRow) {
	fmt.Fprintf(w, "  %7s %8s %12s %11s %10s %8s %8s\n",
		"loss", "crashed", "mean err(m)", "uncovered", "fix rate", "drops", "crashes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f%% %7.0f%% %12.2f %10.0f%% %9.0f%% %8d %8d\n",
			100*r.LossRate, 100*r.CrashFraction, r.MeanErrorM,
			100*r.Uncovered, 100*r.FixRate, r.FaultDrops, r.Crashes)
	}
	fmt.Fprintln(w, "  (expected: error and uncovered fraction rise with fault intensity; no collapse)")
}

func renderReplication(w io.Writer, rep Replication) {
	fmt.Fprintf(w, "  %d seeds: mean err %.2f m (std %.2f, min %.2f, max %.2f)\n",
		rep.Seeds, rep.MeanErrorM, rep.StdErrorM, rep.MinM, rep.MaxM)
}

func renderBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintf(w, "  %-26s %9s %12s %12s %12s\n",
		"system", "equipped", "mean err(m)", "final err(m)", "mobility")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %9d %12.2f %12.2f %11.0f%%\n",
			r.System, r.EquippedRobots, r.MeanErrorM, r.FinalErrorM, r.MobilityDutyPct)
	}
}

func renderAblationPruning(w io.Writer, rows []AblationPruningRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "  pruning=%-5v dataTx=%4d delivered=%4d queries=%4d forwarders=%3d err=%.2fm\n",
			r.Pruning, r.DataSent, r.DataDelivered, r.QueriesSent, r.Forwarders, r.MeanErrorM)
	}
}

func renderAblationK(w io.Writer, rows []AblationKRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "  k=%d: err=%.2fm fixRate=%.0f%% energy=%.0fJ framesSent=%d\n",
			r.K, r.MeanErrorM, 100*r.FixRate, r.CoordEnergyJ, r.BeaconsSent)
	}
}

func renderAblationGrid(w io.Writer, rows []AblationGridRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "  cell=%.0fm (%6d cells): err=%.2fm\n", r.CellM, r.WallSenseN, r.MeanErrorM)
	}
}

func renderAblationLocalizer(w io.Writer, rows []AblationLocalizerRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "  backend=%-8s err=%.2fm fixRate=%.0f%%\n",
			r.Backend, r.MeanErrorM, 100*r.FixRate)
	}
}
