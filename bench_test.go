// Benchmarks regenerating each figure of the paper's evaluation, plus the
// ablation studies from DESIGN.md. Each benchmark runs the scenario behind
// the corresponding figure at a reduced-but-structurally-identical scale
// (go test -bench is not the place for 30-minute 50-robot runs; use
// cmd/cocoaexp for the full-scale suite) and reports the headline metric
// via b.ReportMetric so the shape of the paper's result is visible in the
// bench output.
package cocoa_test

import (
	"context"
	"testing"

	"cocoa"
)

// runExperiment runs the registered experiment called name and returns its
// result as T, the descriptor's concrete result type.
func runExperiment[T any](tb testing.TB, name string, opts cocoa.ExperimentOptions) T {
	tb.Helper()
	for _, d := range cocoa.Experiments() {
		if d.Name == name {
			v, err := d.Run(context.Background(), opts)
			if err != nil {
				tb.Fatal(err)
			}
			return v.(T)
		}
	}
	tb.Fatalf("no registered experiment %q", name)
	var zero T
	return zero
}

// benchOpts is the reduced scale every figure benchmark shares.
func benchOpts(seed int64) cocoa.ExperimentOptions {
	return cocoa.ExperimentOptions{
		Seed:               seed,
		DurationS:          240,
		NumRobots:          16,
		CalibrationSamples: 80000,
		GridCellM:          4,
	}
}

func BenchmarkFig1PDFTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExperiment[*cocoa.Fig1Result](b, "fig1", cocoa.ExperimentOptions{Seed: 1, CalibrationSamples: 120000})
		if i == 0 {
			b.ReportMetric(res.Strong.MeanDist, "strong-mean-m")
			b.ReportMetric(res.Weak.MeanDist, "weak-mean-m")
		}
	}
}

func BenchmarkFig4OdometryOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := runExperiment[[]cocoa.Series](b, "fig4", benchOpts(1))
		if i == 0 {
			for _, s := range series {
				b.ReportMetric(s.Values[len(s.Values)-1], "final-err-m-"+s.Label)
			}
		}
	}
}

func BenchmarkFig5OdometryPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExperiment[*cocoa.Fig5Result](b, "fig5", cocoa.ExperimentOptions{Seed: 1, DurationS: 600})
		if i == 0 {
			b.ReportMetric(res.FinalGapM, "final-gap-m")
		}
	}
}

func BenchmarkFig6RFOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := runExperiment[[]cocoa.Series](b, "fig6", benchOpts(1))
		if i == 0 {
			for _, s := range series {
				b.ReportMetric(cocoa.SteadyStateMean(s, 60), "steady-err-m-"+s.Label)
			}
		}
	}
}

func BenchmarkFig7Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runExperiment[[]cocoa.Fig7Result](b, "fig7", benchOpts(1))
		if i == 0 {
			for _, r := range results {
				if r.VMax == 2.0 {
					b.ReportMetric(cocoa.SteadyStateMean(r.CoCoA, 110), "cocoa-err-m")
					b.ReportMetric(cocoa.SteadyStateMean(r.RFOnly, 110), "rf-err-m")
					b.ReportMetric(cocoa.SteadyStateMean(r.Odometry, 110), "odo-err-m")
				}
			}
		}
	}
}

func BenchmarkFig8CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snaps := runExperiment[[]cocoa.CDFSnapshot](b, "fig8", benchOpts(1))
		if i == 0 && len(snaps) == 3 {
			b.ReportMetric(snaps[1].P90, "p90-after-window-m")
		}
	}
}

func BenchmarkFig9BeaconPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.Fig9Row](b, "fig9", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MeanErrorM, "err-m-T"+itoa(int(r.PeriodS)))
			}
		}
	}
}

func BenchmarkFig9Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.Fig9Row](b, "fig9", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.SavingsRatio, "savings-x-T"+itoa(int(r.PeriodS)))
			}
		}
	}
}

func BenchmarkFig10Devices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.Fig10Row](b, "fig10", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MeanErrorM, "err-m-n"+itoa(r.Equipped))
			}
		}
	}
}

func BenchmarkExtensionSecondaryBeacons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.ExtensionRow](b, "ext-secondary", benchOpts(1))
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].BaselineMeanM, "baseline-err-m")
			b.ReportMetric(rows[0].SecondaryMeanM, "secondary-err-m")
		}
	}
}

func BenchmarkAblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.AblationPruningRow](b, "ablation-pruning", benchOpts(1))
		if i == 0 && len(rows) == 2 {
			b.ReportMetric(float64(rows[0].DataSent), "mrmm-data-tx")
			b.ReportMetric(float64(rows[1].DataSent), "odmrp-data-tx")
		}
	}
}

func BenchmarkAblationBeaconRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.AblationKRow](b, "ablation-k", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(100*r.FixRate, "fixrate-pct-k"+itoa(r.K))
			}
		}
	}
}

func BenchmarkAblationGridResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.AblationGridRow](b, "ablation-grid", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MeanErrorM, "err-m-cell"+itoa(int(r.CellM)))
			}
		}
	}
}

func BenchmarkAblationLocalizerBackend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.AblationLocalizerRow](b, "ablation-localizer", benchOpts(1))
		if i == 0 && len(rows) == 3 {
			b.ReportMetric(rows[0].MeanErrorM, "grid-err-m")
			b.ReportMetric(rows[1].MeanErrorM, "particle-err-m")
			b.ReportMetric(rows[2].MeanErrorM, "ekf-err-m")
		}
	}
}

func BenchmarkExtensionPowerControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.PowerControlRow](b, "ext-power", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(100*r.FixRate, "fixrate-pct-"+itoa(int(r.TxPowerDBm))+"dBm")
			}
		}
	}
}

func BenchmarkExtensionClockSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.ClockSkewRow](b, "ext-skew", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				if r.DriftSigmaS == 1.5 {
					name := "fixrate-pct-drift1.5-sync-off"
					if r.SyncEnabled {
						name = "fixrate-pct-drift1.5-sync-on"
					}
					b.ReportMetric(100*r.FixRate, name)
				}
			}
		}
	}
}

// BenchmarkGeoRouting measures greedy and GFG routing over a CoCoA-derived
// position snapshot (the paper's geographic-routing use case).
func BenchmarkGeoRouting(b *testing.B) {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 40
	cfg.NumEquipped = 20
	cfg.BeaconPeriodS = 50
	cfg.DurationS = 240
	cfg.GridCellM = 4
	cfg.Calibration.Samples = 80000
	res, err := cocoa.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cocoa.NewGeoGraph(res.FinalTruePositions, res.FinalEstimates, 50)
	if err != nil {
		b.Fatal(err)
	}
	var st cocoa.GeoStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % g.N()
		dst := (i*7 + 3) % g.N()
		if src == dst {
			continue
		}
		o, err := g.GFG(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		st.Record(o)
	}
	if st.Attempts > 0 {
		b.ReportMetric(100*st.DeliveryRate(), "delivery-pct")
	}
}

// BenchmarkCoCoARunScaling measures raw simulator throughput at the
// default paper configuration, shortened.
func BenchmarkCoCoARunScaling(b *testing.B) {
	cfg := cocoa.DefaultConfig()
	cfg.DurationS = 120
	cfg.Calibration.Samples = 80000
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := cocoa.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanError() <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkBaselineCoopPos regenerates the CoCoA vs Cooperative
// Positioning comparison (the paper's related-work baseline).
func BenchmarkBaselineCoopPos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.BaselineRow](b, "baseline", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MeanErrorM, "err-m-"+r.System)
			}
		}
	}
}

// BenchmarkExtensionReporting regenerates the controller-reporting data
// path measurement.
func BenchmarkExtensionReporting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.ReportingRow](b, "ext-reports", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(100*r.DeliveryRate, "delivery-pct-T"+itoa(int(r.PeriodS)))
			}
		}
	}
}

// benchmarkReplication is the embarrassingly parallel workload behind the
// serial/parallel pair below: the registry's rob-replication experiment, 5
// independent seeded runs of the default deployment. On a multi-core host
// the parallel variant should run faster (the runs dominate; the
// calibration table is computed once and shared); on a single-CPU host the
// two are expected to tie. Results are byte-identical either way.
func benchmarkReplication(b *testing.B, parallelism int) {
	opts := benchOpts(1)
	opts.Parallelism = parallelism
	for i := 0; i < b.N; i++ {
		rep := runExperiment[cocoa.Replication](b, "rob-replication", opts)
		if i == 0 {
			b.ReportMetric(rep.MeanErrorM, "mean-err-m")
		}
	}
}

func BenchmarkReplicationSerial(b *testing.B)    { benchmarkReplication(b, 1) }
func BenchmarkReplicationParallel4(b *testing.B) { benchmarkReplication(b, 4) }

// BenchmarkExtensionTerrain regenerates the uneven-terrain study.
func BenchmarkExtensionTerrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runExperiment[[]cocoa.TerrainRow](b, "ext-terrain", benchOpts(1))
		if i == 0 {
			for _, r := range rows {
				if r.Amplitude > 0 {
					b.ReportMetric(r.MeanErrorM, "rough-err-m-"+r.Mode)
				}
			}
		}
	}
}

// benchmarkSwarm runs one constant-density swarm deployment (DESIGN.md
// §12). Team construction (RNG stream seeding and robot allocation for n
// robots) happens outside the timer; the measured region is the simulation
// run itself. The MAC's grid-vs-scan pair at each size is internal/mac's
// BenchmarkSwarm.
func benchmarkSwarm(b *testing.B, n int) {
	cfg := cocoa.SwarmConfig(n)
	cfg.Calibration.Samples = 80000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm, err := cocoa.NewTeam(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := tm.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanError(), "mean-err-m")
		}
	}
}

func BenchmarkSwarmSim100(b *testing.B)  { benchmarkSwarm(b, 100) }
func BenchmarkSwarmSim500(b *testing.B)  { benchmarkSwarm(b, 500) }
func BenchmarkSwarmSim1000(b *testing.B) { benchmarkSwarm(b, 1000) }

// BenchmarkNewTeamSwarm1000 times team construction alone for the
// 1000-robot swarm, cycling eight config seeds as the swarm-1000 workload
// does: per-robot RNG stream derivation and seeding, robot and MAC
// allocation. Every seed's calibration table is built before the timer,
// so the loop never calibrates. Its teams never run, so they never park
// their run slots: once the free list is drained, every construction is
// on a new slot, and this measures cold construction, not the warm-slot
// NewTeam the swarm-1000 workload times.
func BenchmarkNewTeamSwarm1000(b *testing.B) {
	cfgs := make([]cocoa.Config, 8)
	for i := range cfgs {
		cfgs[i] = cocoa.SwarmConfig(1000)
		cfgs[i].Calibration.Samples = 80000
		cfgs[i].Seed = int64(i + 1)
		if _, err := cocoa.NewTeam(cfgs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cocoa.NewTeam(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}
