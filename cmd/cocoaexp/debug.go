package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cocoa/internal/telemetry"
)

// writeTelemetrySnapshot serializes the final registry state to path as
// indented JSON. Snapshot ordering is name-sorted, so repeated runs of
// the same suite produce diffable files.
func writeTelemetrySnapshot(path string) error {
	b, err := json.MarshalIndent(telemetry.Default.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry snapshot: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry snapshot: %w", err)
	}
	return nil
}

// printTelemetryDelta appends one experiment's instrument deltas to the
// progress stream. Only sim-deterministic quantities are printed —
// counters and histogram counts/means, never wall-clock span totals — so
// the table is identical at any parallelism level. Two counters measure
// the run slots rather than the runs and are left out: cocoa.scratch_reuse
// and sim.arena_chunks depend on how warm the process-wide run-slot free
// list already is, which earlier experiments and -parallel decide.
func printTelemetryDelta(w io.Writer, d telemetry.Snapshot) {
	wrote := false
	for _, c := range d.Counters {
		if c.Value == 0 || c.Name == "cocoa.scratch_reuse" || c.Name == "sim.arena_chunks" {
			continue
		}
		if !wrote {
			fmt.Fprintln(w, "  telemetry:")
			wrote = true
		}
		fmt.Fprintf(w, "    %-32s %d\n", c.Name, c.Value)
	}
	for _, h := range d.Histograms {
		if h.Count == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintln(w, "  telemetry:")
			wrote = true
		}
		fmt.Fprintf(w, "    %-32s count=%d mean=%.2f\n", h.Name, h.Count, h.Sum/float64(h.Count))
	}
}
