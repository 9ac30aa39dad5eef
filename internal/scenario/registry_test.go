package scenario

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"cocoa/internal/obs"
)

func TestRegistryWellFormed(t *testing.T) {
	exps := Experiments()
	if len(exps) == 0 {
		t.Fatal("empty registry")
	}
	names := make(map[string]bool, len(exps))
	for _, d := range exps {
		if d.Name == "" || d.Flag == "" || d.Title == "" {
			t.Errorf("descriptor %+v has empty field", d)
		}
		if d.Run == nil || d.Render == nil {
			t.Errorf("descriptor %q has nil Run or Render", d.Name)
		}
		if names[d.Name] {
			t.Errorf("duplicate experiment name %q", d.Name)
		}
		names[d.Name] = true
	}
	// The suite must cover every figure of the paper's evaluation.
	for _, want := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestExperimentsReturnsCopy(t *testing.T) {
	a := Experiments()
	a[0].Name = "clobbered"
	if b := Experiments(); b[0].Name == "clobbered" {
		t.Error("Experiments exposes the registry's backing array")
	}
}

// The registry's Run must execute the underlying runner; fig1 is the
// cheapest entry (calibration only, no simulation).
func TestRegistryRunFig1(t *testing.T) {
	for _, d := range Experiments() {
		if d.Name != "fig1" {
			continue
		}
		v, err := d.Run(context.Background(), Options{Seed: 7, CalibrationSamples: 60000})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(*Fig1Result); !ok {
			t.Fatalf("fig1 descriptor returned %T, want *Fig1Result", v)
		}
		return
	}
	t.Fatal("fig1 not registered")
}

// Every entry's Render prints what its Run returns, as whole lines.
func TestRegistryRendersItsRuns(t *testing.T) {
	for _, d := range Experiments() {
		v, err := d.Run(context.Background(), fastOpts())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		var buf bytes.Buffer
		if err := d.Render(&buf, v); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if out := buf.String(); !strings.HasSuffix(out, "\n") {
			t.Errorf("%s rendered %q, want whole lines", d.Name, out)
		}
	}
}

// Render refuses a value its Run could not have produced, and writes
// nothing for it.
func TestRegistryRenderRejectsOtherType(t *testing.T) {
	for _, d := range Experiments() {
		var buf bytes.Buffer
		if err := d.Render(&buf, struct{}{}); err == nil || !strings.Contains(err.Error(), d.Name) {
			t.Errorf("%s: Render(struct{}{}) err = %v, want an error naming the experiment", d.Name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Render of a foreign value wrote %q", d.Name, buf.String())
		}
	}
}

func TestFractionBelow(t *testing.T) {
	snap := CDFSnapshot{
		Errors: []float64{1, 2, 5, 20},
		Probs:  []float64{0.25, 0.5, 0.5, 1},
	}
	if got := fractionBelow(snap, 5); got != 0.5 {
		t.Errorf("fractionBelow(5) = %v, want 0.5", got)
	}
	if got := fractionBelow(snap, 0.5); got != 0 {
		t.Errorf("fractionBelow(0.5) = %v, want 0", got)
	}
	if got := fractionBelow(snap, 100); got != 1 {
		t.Errorf("fractionBelow(100) = %v, want 1", got)
	}
}

// Serial and parallel executions of the same seeded sweep must agree
// byte-for-byte: every run is deterministic in its Config, and the engine
// orders results by sweep index. Run under -race this also exercises the
// engine's synchronization on a real workload.
func TestSweepsDeterministicAcrossParallelism(t *testing.T) {
	serial := fastOpts()
	parallel := fastOpts()
	parallel.Parallelism = 4

	t.Run("failure-injection", func(t *testing.T) {
		s, err := RunFailureInjection(context.Background(), serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunFailureInjection(context.Background(), parallel)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", p), fmt.Sprintf("%#v", s); got != want {
			t.Errorf("parallel rows differ from serial:\nserial:   %s\nparallel: %s", want, got)
		}
	})

	t.Run("ablation-k", func(t *testing.T) {
		s, err := RunAblationK(context.Background(), serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunAblationK(context.Background(), parallel)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", p), fmt.Sprintf("%#v", s); got != want {
			t.Errorf("parallel rows differ from serial:\nserial:   %s\nparallel: %s", want, got)
		}
	})
}

// A fanned-out sweep reports its completed runs through the gauge, which
// ends at (runs, runs).
func TestSweepProgressCallback(t *testing.T) {
	opts := fastOpts()
	opts.Parallelism = 4
	opts.Gauge = &obs.Progress{}
	if _, err := RunFailureInjection(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if done, total := opts.Gauge.Run(); done != 3 || total != 3 {
		t.Fatalf("gauge = (%d, %d), want (3, 3)", done, total)
	}
}
