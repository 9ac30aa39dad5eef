package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"cocoa"
	"cocoa/internal/checkpoint"
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

// TestRunCheckpointSweepAndResume drives the operational loop end to end:
// a quick sweep persists per-run snapshots, then -resume continues one of
// them and reports its provenance. The sweep output itself must be
// unchanged by checkpointing.
func TestRunCheckpointSweepAndResume(t *testing.T) {
	dir := t.TempDir()
	var plain, ckpt bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "9", "-parallel", "1"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-fig", "9", "-parallel", "1",
		"-checkpoint", dir, "-checkpoint-every", "60"}, &ckpt); err != nil {
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
	matches, err := filepath.Glob(filepath.Join(dir, "run-*", "latest.ckpt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("sweep left no snapshots (err=%v)", err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-resume", matches[0]}, &out); err != nil {
		t.Fatalf("resume: %v\n%s", err, out.String())
	}
	for _, want := range []string{"digest sim", "digest rng", "resumed to completion"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("resume output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunResumeDivergenceReport corrupts a snapshot digest and requires
// the CLI to name the diverged subsystem instead of failing opaquely.
func TestRunResumeDivergenceReport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "9", "-parallel", "1",
		"-checkpoint", dir, "-checkpoint-every", "60"}, &buf); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "run-*", "latest.ckpt"))
	if len(matches) == 0 {
		t.Fatal("no snapshots")
	}
	snap, err := checkpoint.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Digests {
		if snap.Digests[i].Name == "robots" {
			snap.Digests[i].Sum ^= 1
		}
	}
	if err := checkpoint.WriteFile(matches[0], snap); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(context.Background(), []string{"-resume", matches[0]}, &out)
	if err == nil {
		t.Fatal("tampered snapshot resumed successfully")
	}
	if !strings.Contains(out.String(), "DIVERGED") || !strings.Contains(out.String(), "robots") {
		t.Errorf("divergence not reported by subsystem:\n%s", out.String())
	}
}
