package scenario

import (
	"bytes"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/eventlog"
	"cocoa/internal/obs"
)

// Every golden figure family must render, from its event stream, a trace
// that survives the strict decoder: balanced begin/end spans, known phases, sane timestamps — the
// file a user hands to Perfetto is well-formed by construction.
func TestGoldenFamiliesTraceRoundTrip(t *testing.T) {
	for name, cfg := range QuickFamilies() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			trace := eventlog.NewTrace(cfg, "")
			cfg.Observer = trace.Observer()
			if _, err := cocoa.Run(cfg); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, trace.Events()); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			events, err := obs.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("trace fails the strict decoder: %v", err)
			}
			// Every family runs the sim loop; the run span must be there,
			// and all RF families must show windows and belief updates.
			names := map[string]int{}
			for _, ev := range events {
				names[ev.Name]++
			}
			if names["run"] == 0 {
				t.Error("no run span recorded")
			}
			if cfg.Mode != cocoa.ModeOdometryOnly {
				if names["sampling-window"] == 0 {
					t.Error("no sampling-window spans recorded")
				}
				if names["mac-frame"] == 0 {
					t.Error("no mac-frame events recorded")
				}
				if names["belief-update"] == 0 {
					t.Error("no belief-update events recorded")
				}
			}
		})
	}
}
