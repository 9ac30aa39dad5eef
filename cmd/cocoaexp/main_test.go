package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cocoa"
	"cocoa/internal/checkpoint"
	"cocoa/internal/checkpoint/difftest"
)

func TestRunSingleFigureQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "9"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9") {
		t.Errorf("missing Figure 9 section:\n%s", out)
	}
	if strings.Contains(out, "Figure 4") {
		t.Error("-fig 9 also ran Figure 4")
	}
	if !strings.Contains(out, "savings") {
		t.Error("Figure 9 output missing savings column")
	}
}

func TestRunFig1Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "gaussian=true") || !strings.Contains(out, "gaussian=false") {
		t.Errorf("Figure 1 output missing regimes:\n%s", out)
	}
}

func TestRunFig5Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "final gap") {
		t.Error("Figure 5 output missing final gap")
	}
}

func TestRunAblationsQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "ablations"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pruning=true", "k=1", "cell=8m"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestRunScaleQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "scale"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Scale — swarm sweep") {
		t.Errorf("missing scale section:\n%s", out)
	}
	if !strings.Contains(out, "belowSense") {
		t.Errorf("scale table missing belowSense column:\n%s", out)
	}
}

// The MAC's reference scan and the grid's eager statistics are test-only
// oracles (DESIGN.md §12, §13): the flags that once selected them are
// unknown, so an old command line fails loudly instead of running the
// production paths under a misleading name.
func TestRunRejectsBadIndex(t *testing.T) {
	for _, args := range [][]string{{"-index", "scan"}, {"-gridstats", "eager"}} {
		var buf bytes.Buffer
		err := run(context.Background(), append([]string{"-quick", "-fig", "scale"}, args...), &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: got %v, want an unknown-flag error", args, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-quick", "-fig", "no-such-figure"}, &buf)
	if err == nil {
		t.Fatal("unknown -fig value accepted")
	}
	if !strings.Contains(err.Error(), "no-such-figure") {
		t.Errorf("error does not name the bad selector: %v", err)
	}
}

// Every registered experiment must have a renderer, or the full suite
// aborts at that experiment.
func TestRenderersCoverRegistry(t *testing.T) {
	for _, d := range cocoa.Experiments() {
		if _, ok := renderers[d.Name]; !ok {
			t.Errorf("experiment %q has no renderer", d.Name)
		}
	}
}

// Golden determinism: -parallel must not change the bytes written for ANY
// registered experiment — runs are seed-deterministic and results land by
// sweep index, not completion order. Covering the whole registry means a
// new experiment cannot ship with order-dependent output.
func TestRunOutputIdenticalAcrossParallelism(t *testing.T) {
	trim := func(t *testing.T, s string) string {
		t.Helper()
		// The wall-time trailer is the one legitimately nondeterministic line.
		i := strings.LastIndex(s, "\ntotal wall time")
		if i < 0 {
			t.Fatalf("output missing wall-time trailer:\n%s", s)
		}
		return s[:i]
	}
	for _, d := range cocoa.Experiments() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			var serial, parallel bytes.Buffer
			if err := run(context.Background(), []string{"-quick", "-fig", d.Name, "-parallel", "1"}, &serial); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), []string{"-quick", "-fig", d.Name, "-parallel", "4"}, &parallel); err != nil {
				t.Fatal(err)
			}
			if got, want := trim(t, parallel.String()), trim(t, serial.String()); got != want {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

func snapshotForTest() cocoa.CDFSnapshot {
	return cocoa.CDFSnapshot{
		Errors: []float64{1, 2, 5, 20},
		Probs:  []float64{0.25, 0.5, 0.5, 1},
	}
}

func TestFractionBelow(t *testing.T) {
	snap := snapshotForTest()
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

// interruptSweep runs the quick Figure 9 sweep serially with -checkpoint,
// interrupts it in its first run, and returns the one snapshot it leaves.
func interruptSweep(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(difftest.PollCanceled(20), []string{"-quick", "-fig", "9", "-parallel", "1", "-checkpoint", dir}, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err=%v, want context.Canceled", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "run-*", "latest.ckpt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("interrupted serial sweep left snapshots %v (err=%v), want one", matches, err)
	}
	return matches[0]
}

// TestRunCheckpointSweepAndResume drives the operational loop end to end:
// an uninterrupted sweep's output is unchanged by -checkpoint and leaves no
// snapshot; an interrupted one leaves the in-flight run's snapshot, and
// -resume reports its provenance and completes it to the uninterrupted
// run's result.
func TestRunCheckpointSweepAndResume(t *testing.T) {
	dir := t.TempDir()
	var plain, ckpt bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "9", "-parallel", "1"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-fig", "9", "-parallel", "1",
		"-checkpoint", dir}, &ckpt); err != nil {
		t.Fatal(err)
	}
	stripWall := func(s string) string {
		i := strings.Index(s, "total wall time")
		if i >= 0 {
			return s[:i]
		}
		return s
	}
	if stripWall(plain.String()) != stripWall(ckpt.String()) {
		t.Fatalf("checkpointing changed experiment output:\n%s\n%s", plain.String(), ckpt.String())
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "run-*", "latest.ckpt")); len(matches) != 0 {
		t.Fatalf("uninterrupted sweep left snapshots %v", matches)
	}

	path := interruptSweep(t)
	snap, err := cocoa.ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cocoa.ConfigFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-resume", path}, &out); err != nil {
		t.Fatalf("resume: %v\n%s", err, out.String())
	}
	want := fmt.Sprintf("resumed to completion: mean error %.2f m over %d samples", full.MeanError(), len(full.Times))
	for _, s := range []string{"digest sim", "digest rng", want} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("resume output missing %q:\n%s", s, out.String())
		}
	}
}

// TestRunResumeDivergenceReport corrupts a snapshot digest and requires
// the CLI to name the diverged subsystem instead of failing opaquely.
func TestRunResumeDivergenceReport(t *testing.T) {
	path := interruptSweep(t)
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Digests {
		if snap.Digests[i].Name == "robots" {
			snap.Digests[i].Sum ^= 1
		}
	}
	if err := checkpoint.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(context.Background(), []string{"-resume", path}, &out)
	if err == nil {
		t.Fatal("tampered snapshot resumed successfully")
	}
	if !strings.Contains(out.String(), "DIVERGED") || !strings.Contains(out.String(), "robots") {
		t.Errorf("divergence not reported by subsystem:\n%s", out.String())
	}
}
