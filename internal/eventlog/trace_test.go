package eventlog

import (
	"bytes"
	"reflect"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/obs"
)

// The renderer maps each event kind onto its trace record: windows become
// spans on the event-loop track, beacons instants (secondary when the
// sender is unequipped), and fixes that applied beacons belief-update
// spans on the robot's own track. A window the run's end cuts off and the
// run span itself close at DurationS.
func TestTraceRendersStream(t *testing.T) {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots, cfg.NumEquipped, cfg.Seed, cfg.DurationS = 4, 2, 7, 100
	tr := NewTrace(cfg, "job-000001")
	observe := tr.Observer()
	for _, e := range []cocoa.Event{
		{TimeS: 0, Kind: cocoa.EventWindowStart, Robot: -1},
		{TimeS: 0.5, Kind: cocoa.EventBeaconSent, Robot: 1},
		{TimeS: 0.75, Kind: cocoa.EventBeaconSent, Robot: 3},
		{TimeS: 3, Kind: cocoa.EventWindowEnd, Robot: -1},
		{TimeS: 3, Kind: cocoa.EventFix, Robot: 2, Beacons: 3, ErrM: 1.5},
		{TimeS: 3, Kind: cocoa.EventFixMissed, Robot: 3},
		{TimeS: 3, Kind: cocoa.EventFixMissed, Robot: 3, Beacons: 1},
		{TimeS: 4, Kind: cocoa.EventSleep, Robot: 2},
		{TimeS: 50, Kind: cocoa.EventWindowStart, Robot: -1},
	} {
		observe(e)
	}

	want := []obs.TraceEvent{
		{Name: "process_name", Phase: obs.PhaseMeta, Args: map[string]any{"name": "job-000001"}},
		{Name: "thread_name", Phase: obs.PhaseMeta, Args: map[string]any{"name": "event-loop"}},
		{Name: "run", Phase: obs.PhaseBegin, Args: map[string]any{"seed": int64(7), "robots": 4, "duration_s": 100}},
		{Name: "sampling-window", Phase: obs.PhaseBegin},
		{Name: "mac-frame", Phase: obs.PhaseInstant, TsUs: 0.5e6, Scope: "t", Args: map[string]any{"robot": 1, "secondary": false}},
		{Name: "mac-frame", Phase: obs.PhaseInstant, TsUs: 0.75e6, Scope: "t", Args: map[string]any{"robot": 3, "secondary": true}},
		{Name: "sampling-window", Phase: obs.PhaseEnd, TsUs: 3e6},
		{Name: "belief-update", Phase: obs.PhaseComplete, TsUs: 3e6, TID: 3, Args: map[string]any{"beacons": 3}},
		{Name: "belief-update", Phase: obs.PhaseComplete, TsUs: 3e6, TID: 4, Args: map[string]any{"beacons": 1}},
		{Name: "sampling-window", Phase: obs.PhaseBegin, TsUs: 50e6},
		{Name: "sampling-window", Phase: obs.PhaseEnd, TsUs: 100e6},
		{Name: "run", Phase: obs.PhaseEnd, TsUs: 100e6},
	}
	got := tr.Events()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered trace:\n got %+v\nwant %+v", got, want)
	}
	// Events closes a copy: reading the trace twice renders it twice.
	if again := tr.Events(); !reflect.DeepEqual(again, want) {
		t.Fatalf("second Events() = %+v", again)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, got); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadTrace(&buf); err != nil {
		t.Fatalf("rendered trace fails the strict decoder: %v", err)
	}
}

// Without a process name the trace starts at the event-loop title, and a
// stream that never opened a window renders just the run span.
func TestTraceEmptyStream(t *testing.T) {
	cfg := cocoa.DefaultConfig()
	got := NewTrace(cfg, "").Events()
	names := make([]string, len(got))
	for i, ev := range got {
		names[i] = ev.Name + "/" + ev.Phase
	}
	if want := []string{"thread_name/M", "run/B", "run/E"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("records = %v, want %v", names, want)
	}
	if end := got[2].TsUs; end != float64(cfg.DurationS)*1e6 {
		t.Errorf("run ends at %v µs, want DurationS", end)
	}
}

// A window-end with no window open renders nothing, and a window-start
// while one is open closes it first, so every stream renders balanced.
func TestTraceWindowsStayBalanced(t *testing.T) {
	tr := NewTrace(cocoa.DefaultConfig(), "")
	observe := tr.Observer()
	observe(cocoa.Event{TimeS: 1, Kind: cocoa.EventWindowEnd})
	observe(cocoa.Event{TimeS: 2, Kind: cocoa.EventWindowStart})
	observe(cocoa.Event{TimeS: 3, Kind: cocoa.EventWindowStart})
	observe(cocoa.Event{TimeS: 4, Kind: cocoa.EventWindowEnd})
	observe(cocoa.Event{TimeS: 5, Kind: cocoa.EventWindowEnd})
	var phases []string
	for _, ev := range tr.Events() {
		if ev.Name == "sampling-window" {
			phases = append(phases, ev.Phase)
		}
	}
	if want := []string{"B", "E", "B", "E"}; !reflect.DeepEqual(phases, want) {
		t.Fatalf("sampling-window phases = %v, want %v", phases, want)
	}
}
