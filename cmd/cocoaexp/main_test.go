package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cocoa"
)

func TestRunSingleFigureQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "9"}, &buf, io.Discard); err != nil {
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
	if err := run(context.Background(), []string{"-quick", "-fig", "1"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "gaussian=true") || !strings.Contains(out, "gaussian=false") {
		t.Errorf("Figure 1 output missing regimes:\n%s", out)
	}
}

func TestRunFig5Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "5"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "final gap") {
		t.Error("Figure 5 output missing final gap")
	}
}

func TestRunAblationsQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "ablations"}, &buf, io.Discard); err != nil {
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
	if err := run(context.Background(), []string{"-quick", "-fig", "scale"}, &buf, io.Discard); err != nil {
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
		err := run(context.Background(), append([]string{"-quick", "-fig", "scale"}, args...), &buf, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: got %v, want an unknown-flag error", args, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &buf, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// The -fig usage lists the registry's selector groups, each once, in
// registry order.
func TestRunUsageListsEveryFlagGroup(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out, &errBuf); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err=%v, want flag.ErrHelp", err)
	}
	const prefix = "which figure to regenerate: "
	usage := errBuf.String()
	i := strings.Index(usage, prefix)
	if i < 0 {
		t.Fatalf("-h output has no -fig usage:\n%s", usage)
	}
	list, _, ok := strings.Cut(usage[i+len(prefix):], " or all")
	if !ok {
		t.Fatalf("-fig usage does not end in \"or all\":\n%s", usage)
	}
	var want []string
	for _, d := range cocoa.Experiments() {
		if !slices.Contains(want, d.Flag) {
			want = append(want, d.Flag)
		}
	}
	if got := strings.Split(list, ","); !slices.Equal(got, want) {
		t.Errorf("-fig usage lists %q, want %q", got, want)
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-quick", "-fig", "no-such-figure"}, &buf, io.Discard)
	if err == nil {
		t.Fatal("unknown -fig value accepted")
	}
	if !strings.Contains(err.Error(), "no-such-figure") {
		t.Errorf("error does not name the bad selector: %v", err)
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
			if err := run(context.Background(), []string{"-quick", "-fig", d.Name, "-parallel", "1"}, &serial, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), []string{"-quick", "-fig", d.Name, "-parallel", "4"}, &parallel, io.Discard); err != nil {
				t.Fatal(err)
			}
			if got, want := trim(t, parallel.String()), trim(t, serial.String()); got != want {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// -progress reads the sweep's gauge while it runs and ends the
// experiment's stderr section with the final run count, at any
// parallelism; the reader has exited by the time run returns.
func TestRunProgressEndsWithFinalCount(t *testing.T) {
	for _, par := range []string{"1", "4"} {
		var out, errBuf bytes.Buffer
		err := run(context.Background(), []string{"-quick", "-fig", "9", "-progress", "-parallel", par}, &out, &errBuf)
		if err != nil {
			t.Fatal(err)
		}
		if got := errBuf.String(); !strings.HasSuffix(got, "\r  run 4/4\n") {
			t.Errorf("-parallel %s: stderr %q, want it to end with the run 4/4 line", par, got)
		}
	}
}

// lookupCanceled is a context that cancels itself on its k-th Value
// lookup. The sweep engine runs each job under a context derived from this
// one, and a derived context forwards every lookup of a key it does not
// own to its parent: one as the engine derives it, then one as each
// simulation run starts. So under a serial sweep the k-th lookup is always
// the start of the same run. The derived context then stops that run, or,
// should the sweep finish first, the engine's final check of this context
// reports the cancel, so the outcome does not depend on timing: the
// stand-in for SIGINT.
type lookupCanceled struct {
	context.Context
	done    chan struct{}
	lookups atomic.Int64
	k       int64
}

func newLookupCanceled(k int64) *lookupCanceled {
	return &lookupCanceled{Context: context.Background(), done: make(chan struct{}), k: k}
}

func (c *lookupCanceled) Done() <-chan struct{} { return c.done }

func (c *lookupCanceled) Value(key any) any {
	if c.lookups.Add(1) == c.k {
		close(c.done)
	}
	return c.Context.Value(key)
}

func (c *lookupCanceled) Err() error {
	if c.lookups.Load() >= c.k {
		return context.Canceled
	}
	return nil
}

// An interrupted sweep fails with context.Canceled before printing its
// figure, and running it again prints the uninterrupted sweep's output.
func TestRunInterruptedSweepReruns(t *testing.T) {
	args := []string{"-quick", "-fig", "9", "-parallel", "1"}
	var partial bytes.Buffer
	if err := run(newLookupCanceled(3), args, &partial, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err=%v, want context.Canceled", err)
	}
	if strings.Contains(partial.String(), "Figure") {
		t.Errorf("interrupted sweep printed its figure:\n%s", partial.String())
	}
	var plain, rerun bytes.Buffer
	if err := run(context.Background(), args, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &rerun, io.Discard); err != nil {
		t.Fatal(err)
	}
	stripWall := func(s string) string {
		if i := strings.Index(s, "total wall time"); i >= 0 {
			return s[:i]
		}
		return s
	}
	if stripWall(plain.String()) != stripWall(rerun.String()) {
		t.Fatalf("rerun output differs:\n%s\n%s", plain.String(), rerun.String())
	}
}

// The quick suite's stdout is pinned byte for byte (wall-time trailer
// aside) by testdata/quick.txt, so a change to any experiment or its
// rendering shows up here. Regenerate after a deliberate change with
// `go run ./cmd/cocoaexp -quick`, dropping the trailing blank and
// total-wall-time lines.
func TestRunQuickMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	i := strings.LastIndex(got, "\ntotal wall time")
	if i < 0 {
		t.Fatalf("output missing wall-time trailer:\n%s", got)
	}
	if got[:i] != string(want) {
		t.Errorf("quick suite output drifted from testdata/quick.txt:\n%s", got[:i])
	}
}
