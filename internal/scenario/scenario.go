// Package scenario reproduces every figure of the paper's evaluation
// (Section 4). Each RunFigN function runs the exact workload the paper
// describes and returns the series/statistics the corresponding figure
// plots; cmd/cocoaexp renders them and EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// All runners accept Options so benchmarks can run shortened versions; the
// zero Options value reproduces the paper's full-scale setup (50 robots,
// 40000 m^2, 30 minutes). Every runner is context-first: canceling the
// context aborts queued and in-flight simulation runs. The context only
// gates execution — it never feeds the simulation, so results stay
// byte-identical whether a run raced a live deadline or none at all.
package scenario

import (
	"context"
	"fmt"
	"log/slog"

	"cocoa/internal/caltable"
	"cocoa/internal/cocoa"
	"cocoa/internal/geom"
	"cocoa/internal/metrics"
	"cocoa/internal/mobility"
	"cocoa/internal/obs"
	"cocoa/internal/odometry"
	"cocoa/internal/radio"
	"cocoa/internal/runner"
	"cocoa/internal/sim"
)

// Options scales a scenario without changing its structure.
type Options struct {
	// Seed for the whole experiment; 0 means 1.
	Seed int64
	// DurationS overrides the paper's 1800 s run length; 0 keeps it.
	DurationS sim.Time
	// NumRobots overrides the paper's 50-robot team; 0 keeps it. The
	// equipped count scales proportionally where a figure doesn't sweep it.
	NumRobots int
	// CalibrationSamples overrides the Monte-Carlo calibration effort.
	CalibrationSamples int
	// GridCellM overrides the Bayesian grid resolution.
	GridCellM float64

	// UpdateWorkers overrides the per-run localizer worker pool; 0 keeps
	// the config default (GOMAXPROCS), 1 forces serial application.
	UpdateWorkers int

	// Parallelism caps how many of an experiment's independent simulation
	// runs execute concurrently. Every run is seed-deterministic and
	// results are ordered by sweep index, so any value produces
	// byte-identical output; 0 or 1 preserves the historical serial
	// execution exactly.
	Parallelism int
	// Progress, when non-nil, is invoked after each completed run of the
	// current experiment with (done, total). Invocations are serialized.
	Progress func(done, total int)
	// Gauge, when non-nil, receives the experiment's live position with no
	// callback: completed runs via SetRun and the executing run's sampling
	// tick via the simulation loop (see obs.Progress). Write-only and
	// lock-free — it cannot perturb results.
	Gauge *obs.Progress
	// Logger, when non-nil, receives the engine's per-failure debug
	// records (runner.Options.Logger).
	Logger *slog.Logger

	// CheckpointDir, when non-empty, makes every simulation run of the
	// experiment persist resumable snapshots beneath it, one run-<index>/
	// subdirectory per sweep run (see cocoa.CheckpointSpec). Operational
	// only: results stay byte-identical with or without it.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in sampling ticks for
	// CheckpointDir; <= 0 means cocoa.DefaultCheckpointEveryTicks.
	CheckpointEvery int
}

// runAll executes prepared sweep configs on the experiment engine,
// returning results in config order. Cancellation of ctx aborts queued and
// in-flight runs; a nil ctx means context.Background().
func (o Options) runAll(ctx context.Context, cfgs []cocoa.Config) ([]*cocoa.Result, error) {
	return runner.Runs(ctx, runner.Options{
		Parallelism:     o.Parallelism,
		Progress:        o.Progress,
		Gauge:           o.Gauge,
		Logger:          o.Logger,
		CheckpointDir:   o.CheckpointDir,
		CheckpointEvery: o.CheckpointEvery,
	}, cfgs)
}

// runEach executes prepared sweep configs like runAll but streams each
// result to fn and recycles its buffers afterwards (runner.RunsEach): the
// full memory-reuse path for experiments that keep one scalar per run
// rather than the run's whole time series. fn may run concurrently up to
// the parallelism cap; distinct calls always carry distinct indices.
func (o Options) runEach(ctx context.Context, cfgs []cocoa.Config, fn func(i int, res *cocoa.Result) error) error {
	return runner.RunsEach(ctx, runner.Options{
		Parallelism:     o.Parallelism,
		Progress:        o.Progress,
		Gauge:           o.Gauge,
		Logger:          o.Logger,
		CheckpointDir:   o.CheckpointDir,
		CheckpointEvery: o.CheckpointEvery,
	}, cfgs, fn)
}

// ctxErr is the early-exit cancellation check for runners whose work does
// not pass through runAll (pure computation, calibration lookups).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// apply rescales a paper-default config.
func (o Options) apply(cfg *cocoa.Config) {
	cfg.Seed = o.seed()
	if o.DurationS > 0 {
		cfg.DurationS = o.DurationS
	}
	if o.NumRobots > 0 {
		ratio := float64(cfg.NumEquipped) / float64(cfg.NumRobots)
		cfg.NumRobots = o.NumRobots
		cfg.NumEquipped = int(ratio*float64(o.NumRobots) + 0.5)
		if cfg.NumEquipped < 1 {
			cfg.NumEquipped = 1
		}
	}
	if o.CalibrationSamples > 0 {
		cfg.Calibration.Samples = o.CalibrationSamples
	}
	if o.GridCellM > 0 {
		cfg.GridCellM = o.GridCellM
	}
	if o.UpdateWorkers > 0 {
		cfg.UpdateWorkers = o.UpdateWorkers
	}
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Times  []float64
	Values []float64
}

// Mean returns the curve's time-averaged value.
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the curve's maximum value, or 0 for an empty curve.
func (s Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// seriesFrom converts a run result into a labeled curve.
func seriesFrom(label string, res *cocoa.Result) Series {
	return Series{Label: label, Times: res.Times, Values: res.AvgError}
}

// ---------------------------------------------------------------------------
// Figure 1 — calibration PDFs
// ---------------------------------------------------------------------------

// PDFCurve samples a calibrated distance PDF for plotting.
type PDFCurve struct {
	RSSIDBm    float64
	IsGaussian bool
	MeanDist   float64
	Dists      []float64
	Densities  []float64
}

// Fig1Result reproduces Figure 1: the distance PDF at a strong RSSI
// (Gaussian regime) and at a weak one (multipath regime).
type Fig1Result struct {
	Strong PDFCurve // paper: -52 dBm, Gaussian
	Weak   PDFCurve // paper: -86 dBm, non-Gaussian
}

// RunFig1 performs the offline calibration and extracts the two PDFs the
// paper plots.
func RunFig1(ctx context.Context, opts Options) (*Fig1Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	model := radio.DefaultModel()
	calOpts := caltable.DefaultOptions()
	if opts.CalibrationSamples > 0 {
		calOpts.Samples = opts.CalibrationSamples
	}
	table, err := caltable.Shared(model, calOpts, opts.seed())
	if err != nil {
		return nil, err
	}
	strong, err := sampleCurve(table, -52)
	if err != nil {
		return nil, err
	}
	weak, err := sampleCurve(table, -86)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Strong: *strong, Weak: *weak}, nil
}

func sampleCurve(table *caltable.Table, rssi float64) (*PDFCurve, error) {
	pdf, ok := table.Lookup(rssi)
	if !ok {
		return nil, fmt.Errorf("scenario: RSSI %v dBm not calibrated", rssi)
	}
	c := &PDFCurve{RSSIDBm: rssi, IsGaussian: pdf.IsGaussian(), MeanDist: pdf.Mean()}
	for d := 0.0; d <= table.MaxDist(); d += 0.5 {
		c.Dists = append(c.Dists, d)
		c.Densities = append(c.Densities, pdf.Density(d))
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — localization error over time using only odometry
// ---------------------------------------------------------------------------

// RunFig4 reproduces Figure 4: odometry-only average error over time for
// maximum speeds 0.5 and 2.0 m/s.
func RunFig4(ctx context.Context, opts Options) ([]Series, error) {
	speeds := []float64{0.5, 2.0}
	cfgs := make([]cocoa.Config, len(speeds))
	for i, vmax := range speeds {
		cfg := cocoa.DefaultConfig()
		cfg.Mode = cocoa.ModeOdometryOnly
		cfg.VMax = vmax
		opts.apply(&cfg)
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(results))
	for i, res := range results {
		out[i] = seriesFrom(fmt.Sprintf("vmax=%.1fm/s", speeds[i]), res)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 5 — an example of odometry error
// ---------------------------------------------------------------------------

// Fig5Result is a single robot's true and odometry-estimated paths.
type Fig5Result struct {
	True      []geom.Vec2
	Estimated []geom.Vec2
	FinalGapM float64
}

// RunFig5 reproduces Figure 5's illustration: one robot's real path versus
// the path its odometer believes it followed.
func RunFig5(ctx context.Context, opts Options) (*Fig5Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	root := sim.NewRNG(opts.seed())
	dur := 600.0
	if opts.DurationS > 0 {
		dur = float64(opts.DurationS)
	}
	way, err := mobility.NewWaypoint(mobility.DefaultConfig(2.0), root.Stream("mobility"))
	if err != nil {
		return nil, err
	}
	start := way.Position(0)
	reck, err := odometry.NewDeadReckoner(odometry.DefaultConfig(), root.Stream("odometry"), start)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{True: []geom.Vec2{start}, Estimated: []geom.Vec2{start}}
	prev := start
	for now := 1.0; now <= dur; now++ {
		cur := way.Position(now)
		reck.Step(cur.Sub(prev), 1)
		prev = cur
		res.True = append(res.True, cur)
		res.Estimated = append(res.Estimated, reck.Estimate())
	}
	res.FinalGapM = prev.Dist(reck.Estimate())
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — RF localization alone, beacon-period sweep
// ---------------------------------------------------------------------------

// BeaconPeriods is the paper's T sweep (Figures 6 and 9).
var BeaconPeriods = []sim.Time{10, 50, 100, 300}

// RunFig6 reproduces Figure 6: RF-only localization error over time for
// each beacon period T.
func RunFig6(ctx context.Context, opts Options) ([]Series, error) {
	cfgs := make([]cocoa.Config, len(BeaconPeriods))
	for i, T := range BeaconPeriods {
		cfg := cocoa.DefaultConfig()
		cfg.Mode = cocoa.ModeRFOnly
		cfg.BeaconPeriodS = T
		opts.apply(&cfg)
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(results))
	for i, res := range results {
		out[i] = seriesFrom(fmt.Sprintf("T=%.0fs", BeaconPeriods[i]), res)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — CoCoA vs odometry-only vs RF-only
// ---------------------------------------------------------------------------

// Fig7Result compares the three approaches at T = 100 s for one speed.
type Fig7Result struct {
	VMax     float64
	Odometry Series
	RFOnly   Series
	CoCoA    Series
}

// RunFig7 reproduces Figures 7(a) and 7(b): the three approaches at the
// paper's two maximum speeds.
func RunFig7(ctx context.Context, opts Options) ([]Fig7Result, error) {
	speeds := []float64{0.5, 2.0}
	modes := []cocoa.Mode{cocoa.ModeOdometryOnly, cocoa.ModeRFOnly, cocoa.ModeCombined}
	var cfgs []cocoa.Config
	for _, vmax := range speeds {
		for _, mode := range modes {
			cfg := cocoa.DefaultConfig()
			cfg.Mode = mode
			cfg.VMax = vmax
			cfg.BeaconPeriodS = 100
			opts.apply(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Result, len(speeds))
	for i, vmax := range speeds {
		r := Fig7Result{VMax: vmax}
		for j, mode := range modes {
			s := seriesFrom(mode.String(), results[i*len(modes)+j])
			switch mode {
			case cocoa.ModeOdometryOnly:
				r.Odometry = s
			case cocoa.ModeRFOnly:
				r.RFOnly = s
			default:
				r.CoCoA = s
			}
		}
		out[i] = r
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 8 — CDF of the localization error at three time instances
// ---------------------------------------------------------------------------

// CDFSnapshot is the error CDF at one instant.
type CDFSnapshot struct {
	Label  string
	TimeS  float64
	Errors []float64
	Probs  []float64
	P90    float64
}

// RunFig8 reproduces Figure 8: CoCoA error CDFs (T = 100 s) at the end of
// a beacon period, right after a transmit period, and mid-sleep.
func RunFig8(ctx context.Context, opts Options) ([]CDFSnapshot, error) {
	cfg := cocoa.DefaultConfig()
	cfg.BeaconPeriodS = 100
	opts.apply(&cfg)
	results, err := opts.runAll(ctx, []cocoa.Config{cfg})
	if err != nil {
		return nil, err
	}
	res := results[0]
	// Pick a window boundary w in the back half of the run, mirroring the
	// paper's choice of t=804s for a 1800s run (w=800, after the window
	// at 800..803).
	T := float64(cfg.BeaconPeriodS)
	tw := float64(cfg.TransmitPeriodS)
	w := T * float64(int(float64(cfg.DurationS)*0.45/T))
	if w < T {
		w = T
	}
	instants := []struct {
		label string
		at    float64
	}{
		{"end of beacon period", w - 1},
		{"end of transmit period", w + tw + 1},
		{"mid sleep (T/2 later)", w + tw + T/2},
	}
	var out []CDFSnapshot
	for _, inst := range instants {
		cdf, err := res.ErrorCDFAt(inst.at)
		if err != nil {
			return nil, err
		}
		xs, ps := cdf.Points()
		out = append(out, CDFSnapshot{
			Label:  inst.label,
			TimeS:  inst.at,
			Errors: xs,
			Probs:  ps,
			P90:    cdf.Quantile(0.9),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — impact of beacon period on error and energy
// ---------------------------------------------------------------------------

// Fig9Row is one beacon period's error and energy outcome.
type Fig9Row struct {
	PeriodS          float64
	ErrorSeries      Series
	MeanErrorM       float64
	MaxAvgErrorM     float64
	CoordEnergyJ     float64
	NoCoordEnergyJ   float64
	SavingsRatio     float64
	FixRate          float64
	MissedAsleepPkts int
}

// RunFig9 reproduces Figures 9(a) and 9(b): CoCoA error over time and team
// energy with/without coordination across the T sweep.
func RunFig9(ctx context.Context, opts Options) ([]Fig9Row, error) {
	cfgs := make([]cocoa.Config, len(BeaconPeriods))
	for i, T := range BeaconPeriods {
		cfg := cocoa.DefaultConfig()
		cfg.BeaconPeriodS = T
		opts.apply(&cfg)
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Row, len(results))
	for i, res := range results {
		T := BeaconPeriods[i]
		out[i] = Fig9Row{
			PeriodS:          float64(T),
			ErrorSeries:      seriesFrom(fmt.Sprintf("T=%.0fs", T), res),
			MeanErrorM:       res.MeanError(),
			MaxAvgErrorM:     res.MaxAvgError(),
			CoordEnergyJ:     res.TotalEnergyJ,
			NoCoordEnergyJ:   res.NoSleepEnergyJ,
			SavingsRatio:     res.EnergySavings(),
			FixRate:          res.FixRate(),
			MissedAsleepPkts: res.MAC.MissedAsleep,
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — impact of the number of localization devices
// ---------------------------------------------------------------------------

// EquippedCounts is the paper's device sweep.
var EquippedCounts = []int{5, 15, 25, 35}

// Fig10Row is one equipped-count outcome.
type Fig10Row struct {
	Equipped     int
	MeanErrorM   float64
	MaxAvgErrorM float64
	FixRate      float64
	P90ErrorM    float64
}

// RunFig10 reproduces Figure 10: CoCoA localization error as the number of
// equipped robots varies, T = 100 s.
func RunFig10(ctx context.Context, opts Options) ([]Fig10Row, error) {
	cfgs := make([]cocoa.Config, len(EquippedCounts))
	for i, n := range EquippedCounts {
		cfg := cocoa.DefaultConfig()
		cfg.BeaconPeriodS = 100
		cfg.NumEquipped = n
		opts.apply(&cfg)
		if opts.NumRobots > 0 {
			// Preserve the sweep's absolute counts when the team shrinks:
			// scale the equipped count by the same ratio.
			cfg.NumEquipped = n * cfg.NumRobots / 50
			if cfg.NumEquipped < 1 {
				cfg.NumEquipped = 1
			}
		}
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig10Row, len(results))
	for i, res := range results {
		var p90 float64
		if cdf, err := res.ErrorCDFAt(float64(cfgs[i].DurationS) * 0.9); err == nil {
			p90 = cdf.Quantile(0.9)
		}
		out[i] = Fig10Row{
			Equipped:     cfgs[i].NumEquipped,
			MeanErrorM:   res.MeanError(),
			MaxAvgErrorM: res.MaxAvgError(),
			FixRate:      res.FixRate(),
			P90ErrorM:    p90,
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Extensions and ablations (DESIGN.md Section 5)
// ---------------------------------------------------------------------------

// ExtensionRow compares CoCoA with and without the future-work secondary
// beaconing, at a given equipped count.
type ExtensionRow struct {
	Equipped          int
	BaselineMeanM     float64
	SecondaryMeanM    float64
	BaselineFixRate   float64
	SecondaryFixRate  float64
	ExtraBeaconsOnAir int
}

// RunExtensionSecondary evaluates the paper's Section 6 idea: localized
// unequipped robots also beacon. The interesting regime is few equipped
// robots, where coverage gaps make extra (noisier) anchors worthwhile.
func RunExtensionSecondary(ctx context.Context, opts Options) ([]ExtensionRow, error) {
	counts := []int{5, 15}
	var cfgs []cocoa.Config
	for _, n := range counts {
		for _, secondary := range []bool{false, true} {
			cfg := cocoa.DefaultConfig()
			cfg.BeaconPeriodS = 100
			cfg.NumEquipped = n
			cfg.SecondaryBeacons = secondary
			opts.apply(&cfg)
			if opts.NumRobots > 0 {
				cfg.NumEquipped = n * cfg.NumRobots / 50
				if cfg.NumEquipped < 1 {
					cfg.NumEquipped = 1
				}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]ExtensionRow, len(counts))
	for i := range counts {
		base, sec := results[2*i], results[2*i+1]
		out[i] = ExtensionRow{
			Equipped:          cfgs[2*i].NumEquipped,
			BaselineMeanM:     base.MeanError(),
			SecondaryMeanM:    sec.MeanError(),
			BaselineFixRate:   base.FixRate(),
			SecondaryFixRate:  sec.FixRate(),
			ExtraBeaconsOnAir: sec.MAC.Sent - base.MAC.Sent,
		}
	}
	return out, nil
}

// AblationPruningRow compares MRMM pruning against plain ODMRP.
type AblationPruningRow struct {
	Pruning       bool
	DataSent      int
	DataDelivered int
	QueriesSent   int
	Forwarders    int
	SyncsReceived int
	MeanErrorM    float64
}

// RunAblationPruning measures SYNC dissemination cost with MRMM's
// mobility-aware pruning versus plain ODMRP upstream selection.
func RunAblationPruning(ctx context.Context, opts Options) ([]AblationPruningRow, error) {
	variants := []bool{true, false}
	cfgs := make([]cocoa.Config, len(variants))
	for i, pruning := range variants {
		cfg := cocoa.DefaultConfig()
		cfg.MRMMPruning = pruning
		opts.apply(&cfg)
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPruningRow, len(results))
	for i, res := range results {
		out[i] = AblationPruningRow{
			Pruning:       variants[i],
			DataSent:      res.MRMM.DataSent,
			DataDelivered: res.MRMM.DataDelivered,
			QueriesSent:   res.MRMM.QueriesSent,
			Forwarders:    res.MRMM.BecameForwarder,
			SyncsReceived: res.SyncsReceived,
			MeanErrorM:    res.MeanError(),
		}
	}
	return out, nil
}

// AblationKRow measures the beacon-redundancy tradeoff.
type AblationKRow struct {
	K            int
	MeanErrorM   float64
	FixRate      float64
	CoordEnergyJ float64
	BeaconsSent  int
}

// RunAblationK sweeps the per-window beacon count k in {1, 3, 5}: the
// paper fixes k=3 "for reliability"; this quantifies the choice.
func RunAblationK(ctx context.Context, opts Options) ([]AblationKRow, error) {
	ks := []int{1, 3, 5}
	cfgs := make([]cocoa.Config, len(ks))
	for i, k := range ks {
		cfg := cocoa.DefaultConfig()
		cfg.BeaconsPerWindow = k
		opts.apply(&cfg)
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]AblationKRow, len(results))
	for i, res := range results {
		out[i] = AblationKRow{
			K:            ks[i],
			MeanErrorM:   res.MeanError(),
			FixRate:      res.FixRate(),
			CoordEnergyJ: res.TotalEnergyJ,
			BeaconsSent:  res.MAC.Sent,
		}
	}
	return out, nil
}

// AblationGridRow measures the grid-resolution accuracy/cost tradeoff.
type AblationGridRow struct {
	CellM      float64
	MeanErrorM float64
	WallSenseN int // grid cells, a proxy for per-beacon CPU cost
}

// RunAblationGrid sweeps the Bayesian grid resolution.
func RunAblationGrid(ctx context.Context, opts Options) ([]AblationGridRow, error) {
	cells := []float64{1, 2, 4, 8}
	cfgs := make([]cocoa.Config, len(cells))
	for i, cell := range cells {
		cfg := cocoa.DefaultConfig()
		opts.apply(&cfg)
		cfg.GridCellM = cell // opts may override; the sweep wins
		cfgs[i] = cfg
	}
	results, err := opts.runAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]AblationGridRow, len(results))
	for i, res := range results {
		nx := int(cfgs[i].Area.Width() / cells[i])
		ny := int(cfgs[i].Area.Height() / cells[i])
		out[i] = AblationGridRow{
			CellM:      cells[i],
			MeanErrorM: res.MeanError(),
			WallSenseN: nx * ny,
		}
	}
	return out, nil
}

// SteadyStateMean averages a curve past the warm-up prefix (the first
// beacon period), isolating the paper's "average error over time" from the
// cold-start transient.
func SteadyStateMean(s Series, warmupS float64) float64 {
	var sum float64
	n := 0
	for i, t := range s.Times {
		if t >= warmupS {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SummarizeTail returns summary statistics of a curve past warmupS.
func SummarizeTail(s Series, warmupS float64) metrics.Summary {
	var tail []float64
	for i, t := range s.Times {
		if t >= warmupS {
			tail = append(tail, s.Values[i])
		}
	}
	return metrics.Summarize(tail)
}
