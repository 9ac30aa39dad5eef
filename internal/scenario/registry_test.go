package scenario

import (
	"context"
	"fmt"
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
		if d.Run == nil {
			t.Errorf("descriptor %q has nil Run", d.Name)
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
