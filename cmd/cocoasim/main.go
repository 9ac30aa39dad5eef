// Command cocoasim runs a single CoCoA deployment and prints the
// localization-error time series plus a run summary as text, the series
// alone as CSV (-csv), or the summary as JSON (-json).
//
// Examples:
//
//	cocoasim -mode cocoa -T 100 -duration 1800
//	cocoasim -mode odometry -vmax 0.5 -csv
//	cocoasim -mode rf -T 50 -equipped 15 -seed 7
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"cocoa"
	icocoa "cocoa/internal/cocoa"
	"cocoa/internal/eventlog"
	"cocoa/internal/obs"
)

// summary is the -json schema: an echo of the run's config, the
// Result.Summary every other tool writes (embedded, so the JSON stays
// flat), and the run values that projection leaves out. A ratio whose
// denominator is zero — no RF windows, no energy spent, reporting off —
// is undefined and left out.
type summary struct {
	Mode             string  `json:"mode"`
	Localizer        string  `json:"localizer"`
	NumRobots        int     `json:"numRobots"`
	NumEquipped      int     `json:"numEquipped"`
	VMaxMps          float64 `json:"vmaxMps"`
	BeaconPeriodS    float64 `json:"beaconPeriodS"`
	TransmitPeriodS  float64 `json:"transmitPeriodS"`
	BeaconsPerWindow int     `json:"beaconsPerWindow"`
	DurationS        float64 `json:"durationS"`
	Seed             int64   `json:"seed"`
	Coordinated      bool    `json:"coordinated"`

	icocoa.Summary

	FixRate          *float64 `json:"fixRate,omitempty"`
	EnergySavings    *float64 `json:"energySavings,omitempty"`
	ReportsSent      int      `json:"reportsSent"`
	ReportsDelivered int      `json:"reportsDelivered"`
	ReportDelivery   *float64 `json:"reportDelivery,omitempty"`
	MRMMDataSent     int      `json:"mrmmDataSent"`
	MRMMForwarders   int      `json:"mrmmForwarders"`
	MRMMQueriesSent  int      `json:"mrmmQueriesSent"`
	MRMMDataDelivers int      `json:"mrmmDataDelivers"`
}

// summarize builds the -json summary of a finished run.
func summarize(res *cocoa.Result) summary {
	cfg := res.Config
	return summary{
		Mode:             cfg.Mode.String(),
		Localizer:        cfg.Localizer.String(),
		NumRobots:        cfg.NumRobots,
		NumEquipped:      cfg.NumEquipped,
		VMaxMps:          cfg.VMax,
		BeaconPeriodS:    cfg.BeaconPeriodS,
		TransmitPeriodS:  cfg.TransmitPeriodS,
		BeaconsPerWindow: cfg.BeaconsPerWindow,
		DurationS:        cfg.DurationS,
		Seed:             cfg.Seed,
		Coordinated:      cfg.Coordinated,

		Summary: res.Summary(),

		FixRate:          defined(res.FixRate()),
		EnergySavings:    defined(res.EnergySavings()),
		ReportsSent:      res.ReportsSent,
		ReportsDelivered: res.ReportsDelivered,
		ReportDelivery:   defined(res.ReportDeliveryRate()),
		MRMMDataSent:     res.MRMM.DataSent,
		MRMMForwarders:   res.MRMM.BecameForwarder,
		MRMMQueriesSent:  res.MRMM.QueriesSent,
		MRMMDataDelivers: res.MRMM.DataDelivered,
	}
}

// defined returns nil for a NaN ratio, so omitempty drops it.
func defined(x float64) *float64 {
	if math.IsNaN(x) {
		return nil
	}
	return &x
}

// writeCSV writes a header row, then one row per sample instant: the
// time to 3 decimals and each column's value at that instant to 6.
func writeCSV(w io.Writer, header []string, times []float64, cols [][]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for k, t := range times {
		rec[0] = strconv.FormatFloat(t, 'f', 3, 64)
		for i, col := range cols {
			rec[i+1] = strconv.FormatFloat(col[k], 'f', 6, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeFile creates path and streams content through fn.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	// Interrupt or SIGTERM stops the run cooperatively at its next
	// sampling tick; an interrupted run writes no output. Rerunning the
	// same flags reproduces the run from the start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cocoasim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cocoasim", flag.ContinueOnError)
	var (
		mode        = fs.String("mode", "cocoa", "localization mode: odometry | rf | cocoa")
		robots      = fs.Int("robots", 50, "team size")
		equipped    = fs.Int("equipped", 25, "robots with localization devices")
		vmax        = fs.Float64("vmax", 2.0, "maximum robot speed (m/s)")
		period      = fs.Float64("T", 100, "beacon period T (s)")
		window      = fs.Float64("t", 3, "transmit period t (s)")
		k           = fs.Int("k", 3, "beacons per window")
		duration    = fs.Float64("duration", 1800, "simulated time (s)")
		seed        = fs.Int64("seed", 1, "random seed")
		gridCell    = fs.Float64("grid", 2, "Bayesian grid cell size (m)")
		localizer   = fs.String("localizer", "grid", "RF estimation backend: grid | particle | ekf")
		terrain     = fs.Float64("terrain", 0, "terrain roughness amplitude (0 = smooth)")
		uncoord     = fs.Bool("no-coordination", false, "radios idle instead of sleeping")
		secondary   = fs.Bool("secondary", false, "localized unequipped robots also beacon")
		csvOut      = fs.Bool("csv", false, "emit the full per-second series as CSV instead of text")
		jsonOut     = fs.Bool("json", false, "emit the run summary as JSON instead of text")
		seriesFile  = fs.String("series", "", "also write the error series CSV to this file")
		eventsFile  = fs.String("events", "", "also write a JSONL event log to this file")
		robotsFile  = fs.String("robots-out", "", "also write the per-robot error matrix CSV to this file")
		sampleEvery = fs.Int("every", 60, "series print cadence in samples (non-CSV)")
		printConfig = fs.Bool("print-config", false, "print the assembled Config as JSON and exit (pipe into cocoad)")
		traceOut    = fs.String("trace-out", "", "record a span timeline and write it as Chrome trace-event JSON to this file (load in Perfetto)")
	)
	logOpts := obs.AddLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sampleEvery < 1 {
		return fmt.Errorf("-every %d: want at least 1", *sampleEvery)
	}
	logger, err := logOpts.NewLogger(os.Stderr)
	if err != nil {
		return err
	}

	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = *robots
	cfg.NumEquipped = *equipped
	cfg.VMax = *vmax
	cfg.BeaconPeriodS = *period
	cfg.TransmitPeriodS = *window
	cfg.BeaconsPerWindow = *k
	cfg.DurationS = *duration
	cfg.Seed = *seed
	cfg.GridCellM = *gridCell
	cfg.Coordinated = !*uncoord
	cfg.SecondaryBeacons = *secondary
	cfg.TerrainAmplitude = *terrain

	switch *localizer {
	case "grid":
		cfg.Localizer = cocoa.LocalizerGrid
	case "particle":
		cfg.Localizer = cocoa.LocalizerParticle
	case "ekf":
		cfg.Localizer = cocoa.LocalizerEKF
	default:
		return fmt.Errorf("unknown localizer %q (want grid | particle | ekf)", *localizer)
	}

	switch *mode {
	case "odometry":
		cfg.Mode = cocoa.ModeOdometryOnly
	case "rf":
		cfg.Mode = cocoa.ModeRFOnly
	case "cocoa":
		cfg.Mode = cocoa.ModeCombined
	default:
		return fmt.Errorf("unknown mode %q (want odometry | rf | cocoa)", *mode)
	}

	if *printConfig {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cfg)
	}

	// The run's event sinks share its one Observer: the -events log and the
	// -trace-out renderer read the same stream.
	var sinks []icocoa.Observer
	var evWriter *eventlog.Writer
	var evFile *os.File
	if *eventsFile != "" {
		evFile, err = os.Create(*eventsFile)
		if err != nil {
			return err
		}
		defer evFile.Close()
		evWriter = eventlog.NewWriter(evFile)
		sinks = append(sinks, evWriter.Observer())
	}
	var trace *eventlog.Trace
	if *traceOut != "" {
		trace = eventlog.NewTrace(cfg, "")
		sinks = append(sinks, trace.Observer())
	}
	if len(sinks) > 0 {
		cfg.Observer = func(e icocoa.Event) {
			for _, sink := range sinks {
				sink(e)
			}
		}
	}
	res, err := cocoa.RunContext(ctx, cfg)
	if err != nil {
		if evFile != nil {
			// An interrupted or failed run leaves no partial event log.
			evFile.Close()
			os.Remove(*eventsFile)
		}
		return err
	}
	if evWriter != nil {
		if err := evWriter.Close(); err != nil {
			return err
		}
	}
	if trace != nil {
		events := trace.Events()
		if err := writeFile(*traceOut, func(w io.Writer) error { return obs.WriteTrace(w, events) }); err != nil {
			return err
		}
		logger.Info("trace written", "path", *traceOut, "events", len(events))
	}

	// The average-error series, written identically to -series and -csv.
	series := func(w io.Writer) error {
		return writeCSV(w, []string{"time_s", "avg_error_m"}, res.Times, [][]float64{res.AvgError})
	}
	if *seriesFile != "" {
		if err := writeFile(*seriesFile, series); err != nil {
			return err
		}
	}
	if *robotsFile != "" {
		header := []string{"time_s"}
		for _, id := range res.TrackedIDs {
			header = append(header, "robot_"+strconv.Itoa(id))
		}
		if err := writeFile(*robotsFile, func(f io.Writer) error {
			return writeCSV(f, header, res.Times, res.PerRobot)
		}); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summarize(res))
	}
	if *csvOut {
		return series(w)
	}

	fmt.Fprintf(w, "time(s)  avg error (m)\n")
	for i := 0; i < len(res.Times); i += *sampleEvery {
		fmt.Fprintf(w, "%7.0f  %8.2f\n", res.Times[i], res.AvgError[i])
	}

	fmt.Fprintf(w, "\nmode=%s robots=%d equipped=%d vmax=%.1f T=%.0fs t=%.0fs k=%d seed=%d\n",
		cfg.Mode, cfg.NumRobots, cfg.NumEquipped, cfg.VMax,
		cfg.BeaconPeriodS, cfg.TransmitPeriodS, cfg.BeaconsPerWindow, cfg.Seed)
	fmt.Fprintf(w, "mean error over time: %.2f m (max avg %.2f m)\n", res.MeanError(), res.MaxAvgError())
	if cfg.Mode != cocoa.ModeOdometryOnly {
		fmt.Fprintf(w, "fix rate: %.1f%%  beacons applied: %d  SYNCs delivered: %d\n",
			100*res.FixRate(), res.BeaconsApplied, res.SyncsReceived)
		fmt.Fprintf(w, "energy: %.0f J coordinated, %.0f J without coordination (%.1fx savings)\n",
			res.TotalEnergyJ, res.NoSleepEnergyJ, res.EnergySavings())
		fmt.Fprintf(w, "MAC: %d frames sent, %d delivered, %d collided, %d missed asleep\n",
			res.MAC.Sent, res.MAC.Delivered, res.MAC.Collided, res.MAC.MissedAsleep)
	}
	return nil
}
