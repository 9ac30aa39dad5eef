package scenario

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cocoa/internal/cocoa"
)

func TestFaultSweepShape(t *testing.T) {
	rows, err := RunFaultSweep(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := len(FaultLossRates()) * len(FaultCrashFractions())
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	// Row 0 is the clean cell: no fault machinery may have moved.
	r0 := rows[0]
	if r0.LossRate != 0 || r0.CrashFraction != 0 {
		t.Fatalf("first cell is not the clean one: %+v", r0)
	}
	if r0.FaultDrops != 0 || r0.Crashes != 0 {
		t.Errorf("clean cell has fault activity: %+v", r0)
	}
	for i, r := range rows {
		if math.IsNaN(r.MeanErrorM) || r.MeanErrorM <= 0 {
			t.Errorf("row %d: degenerate mean error %v", i, r.MeanErrorM)
		}
		if r.Uncovered < 0 || r.Uncovered > 1 {
			t.Errorf("row %d: uncovered %v out of [0,1]", i, r.Uncovered)
		}
	}
}

// The sweep's clean cell must be byte-identical to a plain run of the same
// scaled config: the fault layer is strictly opt-in.
func TestFaultSweepCleanCellMatchesPlainRun(t *testing.T) {
	opts := fastOpts()
	rows, err := RunFaultSweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cocoa.DefaultConfig()
	opts.apply(&cfg)
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MeanErrorM != res.MeanError() {
		t.Errorf("clean cell mean error %v != plain run %v", rows[0].MeanErrorM, res.MeanError())
	}
	if rows[0].FixRate != res.FixRate() {
		t.Errorf("clean cell fix rate %v != plain run %v", rows[0].FixRate, res.FixRate())
	}
}

// The acceptance property: along the loss axis (no crashes) and at the
// severest cell, degradation is monotone — more faults never help. Runs
// are pure functions of (config, seed), so exact comparisons are stable.
func TestFaultSweepMonotoneDegradation(t *testing.T) {
	rows, err := RunFaultSweep(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[[2]float64]FaultRow{}
	for _, r := range rows {
		byCell[[2]float64{r.LossRate, r.CrashFraction}] = r
	}
	// Loss axis, crash 0: uncovered fraction and mean error nondecreasing.
	rates := FaultLossRates()
	for i := 1; i < len(rates); i++ {
		lo := byCell[[2]float64{rates[i-1], 0}]
		hi := byCell[[2]float64{rates[i], 0}]
		if hi.Uncovered < lo.Uncovered {
			t.Errorf("uncovered dropped with loss %.2f -> %.2f: %v -> %v",
				lo.LossRate, hi.LossRate, lo.Uncovered, hi.Uncovered)
		}
		if hi.MeanErrorM < lo.MeanErrorM {
			t.Errorf("mean error dropped with loss %.2f -> %.2f: %v -> %v",
				lo.LossRate, hi.LossRate, lo.MeanErrorM, hi.MeanErrorM)
		}
	}
	// Crashes at fixed loss: uncovered never improves when a fifth of the
	// team goes dark.
	for _, loss := range rates {
		clean := byCell[[2]float64{loss, 0}]
		crashed := byCell[[2]float64{loss, 0.2}]
		if crashed.Crashes == 0 {
			t.Errorf("loss %.2f: crash cell had no crashes", loss)
		}
		if crashed.Uncovered < clean.Uncovered {
			t.Errorf("loss %.2f: uncovered improved with crashes: %v -> %v",
				loss, clean.Uncovered, crashed.Uncovered)
		}
	}
	// The severest cell versus the clean one: both headline metrics worse.
	worst := byCell[[2]float64{0.5, 0.2}]
	clean := byCell[[2]float64{0, 0}]
	if worst.MeanErrorM <= clean.MeanErrorM {
		t.Errorf("severest cell error %v not above clean %v", worst.MeanErrorM, clean.MeanErrorM)
	}
	if worst.Uncovered <= clean.Uncovered {
		t.Errorf("severest cell uncovered %v not above clean %v", worst.Uncovered, clean.Uncovered)
	}
	if worst.FaultDrops == 0 {
		t.Error("severest cell dropped nothing")
	}
}

// The fault sweep must be byte-identical at any parallelism, like every
// other experiment: fault RNG streams are per-run, never shared.
func TestFaultSweepDeterministicAcrossParallelism(t *testing.T) {
	serial := fastOpts()
	parallel := fastOpts()
	parallel.Parallelism = 4

	s, err := RunFaultSweep(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RunFaultSweep(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", p), fmt.Sprintf("%#v", s); got != want {
		t.Errorf("parallel rows differ from serial:\nserial:   %s\nparallel: %s", want, got)
	}
}
