// Command cocoacal runs the offline calibration phase in isolation and
// dumps the PDF Table for inspection or plotting — the data behind the
// paper's Figure 1.
//
// Examples:
//
//	cocoacal                      # per-RSSI summary table
//	cocoacal -rssi -52 -csv       # one PDF's full curve as CSV
//	cocoacal -samples 1000000     # heavier calibration
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"cocoa/internal/caltable"
	"cocoa/internal/radio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cocoacal:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cocoacal", flag.ContinueOnError)
	var (
		samples = fs.Int("samples", 400000, "Monte-Carlo soundings")
		seed    = fs.Int64("seed", 1, "random seed")
		rssi    = fs.Float64("rssi", 0, "dump one RSSI's PDF curve (0 = summary table)")
		csv     = fs.Bool("csv", false, "CSV output")
		step    = fs.Float64("step", 0.5, "curve sampling step in meters")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*step > 0) || math.IsInf(*step, 1) {
		return fmt.Errorf("-step %v: want a finite step above 0 m", *step)
	}

	model := radio.DefaultModel()
	opts := caltable.DefaultOptions()
	opts.Samples = *samples
	table, err := caltable.Shared(model, opts, *seed)
	if err != nil {
		return err
	}

	if *rssi != 0 {
		return dumpCurve(w, table, *rssi, *step, *csv)
	}
	return dumpSummary(w, table, model, *csv)
}

// dumpCurve prints one PDF's density over distance.
func dumpCurve(w io.Writer, table *caltable.Table, rssi, step float64, csv bool) error {
	pdf, ok := table.Lookup(rssi)
	if !ok {
		return fmt.Errorf("RSSI %.0f dBm not calibrated", rssi)
	}
	if csv {
		fmt.Fprintln(w, "distance_m,density")
		for d := 0.0; d <= table.MaxDist(); d += step {
			fmt.Fprintf(w, "%.2f,%.8f\n", d, pdf.Density(d))
		}
		return nil
	}
	fmt.Fprintf(w, "RSSI %.0f dBm: gaussian=%v mean=%.2f m std=%.2f m\n",
		rssi, pdf.IsGaussian(), pdf.Mean(), pdf.Std())
	// Coarse ASCII profile.
	var peak float64
	for d := 0.0; d <= table.MaxDist(); d += step {
		if v := pdf.Density(d); v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return fmt.Errorf("degenerate PDF at %.0f dBm", rssi)
	}
	for d := 0.0; d <= table.MaxDist(); d += 5 {
		bar := int(40 * pdf.Density(d) / peak)
		fmt.Fprintf(w, "%6.1f m |", d)
		for i := 0; i < bar; i++ {
			fmt.Fprint(w, "#")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// dumpSummary prints one row per calibrated RSSI value.
func dumpSummary(w io.Writer, table *caltable.Table, model radio.Model, csv bool) error {
	lo, hi, ok := table.CalibratedRange()
	if !ok {
		return fmt.Errorf("empty calibration table")
	}
	if csv {
		fmt.Fprintln(w, "rssi_dbm,gaussian,mean_m,std_m,nominal_m")
	} else {
		fmt.Fprintf(w, "%10s %9s %9s %8s %10s\n", "rssi(dBm)", "gaussian", "mean(m)", "std(m)", "nominal(m)")
	}
	for r := hi; r >= lo; r-- {
		pdf, ok := table.Lookup(float64(r))
		if !ok {
			continue
		}
		nominal := model.DistanceForRSSI(float64(r))
		if csv {
			fmt.Fprintf(w, "%d,%v,%.2f,%.2f,%.2f\n",
				r, pdf.IsGaussian(), pdf.Mean(), pdf.Std(), nominal)
		} else {
			fmt.Fprintf(w, "%10d %9v %9.2f %8.2f %10.2f\n",
				r, pdf.IsGaussian(), pdf.Mean(), pdf.Std(), nominal)
		}
	}
	return nil
}
