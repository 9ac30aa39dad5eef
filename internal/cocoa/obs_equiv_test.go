package cocoa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/eventlog"
	"cocoa/internal/obs"
	"cocoa/internal/telemetry"
)

// obsConfig is the small deployment the observability suites run.
func obsConfig() cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.NumRobots = 12
	cfg.NumEquipped = 6
	cfg.DurationS = 300
	cfg.BeaconPeriodS = 50
	cfg.GridCellM = 4
	cfg.Calibration.Samples = 60000
	return cfg
}

// traceJSON serializes a rendered trace and requires it to pass the strict
// decoder with every span kind a run of obsConfig produces.
func traceJSON(t *testing.T, tr *eventlog.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	events, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not round-trip balanced: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range events {
		names[ev.Name] = true
	}
	for _, want := range []string{"run", "sampling-window", "mac-frame", "belief-update"} {
		if !names[want] {
			t.Errorf("trace has no %q record", want)
		}
	}
	return buf.Bytes()
}

// The observability layer inherits telemetry's prime directive: progress
// publication and the event stream behind the span trace record, they
// never steer. Attaching both must not perturb a single bit of any Result
// — nor the run's telemetry — at any flush worker count. (make check
// runs this under -race, which also exercises the progress gauge against
// concurrent readers of the serve layer's shape.)
func TestObsProgressTraceOnOffByteIdentical(t *testing.T) {
	t.Parallel()
	type outcome struct {
		result     *cocoa.Result
		resultJSON string
		telemetry  telemetry.Snapshot
	}
	run := func(workers int, withObs bool) outcome {
		cfg := obsConfig()
		var progress *obs.Progress
		var trace *eventlog.Trace
		if withObs {
			progress = &obs.Progress{}
			cfg.Progress = progress
			trace = eventlog.NewTrace(cfg, "")
			cfg.Observer = trace.Observer()
		}
		// A new slot each time, so slot warmth cannot differ between the
		// runs compared.
		team, err := cocoa.NewTeamContext(cocoa.WithFlushWorkers(context.Background(), workers), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := team.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if withObs {
			// The run must have actually published and recorded.
			tick, total := progress.Ticks()
			if total == 0 || tick != total {
				t.Errorf("workers=%d: progress ended at %d/%d, want full", workers, tick, total)
			}
			traceJSON(t, trace)
		}
		return outcome{result: res, resultJSON: string(b), telemetry: team.Telemetry()}
	}

	for _, workers := range []int{1, 3, 8, 0} {
		off := run(workers, false)
		on := run(workers, true)
		if off.resultJSON != on.resultJSON {
			t.Errorf("%d flush workers: Result differs with progress+trace attached", workers)
		}
		// Stronger than the JSON check: the archived Config must not retain
		// the Progress/Observer handles (scrubObservers), so the whole
		// struct compares equal too.
		if !reflect.DeepEqual(off.result, on.result) {
			t.Errorf("%d flush workers: Result structs differ with progress+trace attached (observer handles leaked into Result.Config?)", workers)
		}
		if !reflect.DeepEqual(off.telemetry, on.telemetry) {
			t.Errorf("%d flush workers: telemetry differs with progress+trace attached\noff: %+v\non:  %+v",
				workers, off.telemetry, on.telemetry)
		}
	}
}

// Identical runs must render identical traces: the events carry the
// simulation's virtual clock and arrive in the event loop's deterministic
// order, so the exported JSON is byte-for-byte reproducible, at any worker
// count.
func TestObsTraceDeterministic(t *testing.T) {
	render := func(workers int) []byte {
		cfg := obsConfig()
		trace := eventlog.NewTrace(cfg, "")
		cfg.Observer = trace.Observer()
		if _, err := cocoa.RunContext(cocoa.WithFlushWorkers(context.Background(), workers), cfg); err != nil {
			t.Fatal(err)
		}
		return traceJSON(t, trace)
	}
	base := render(1)
	for _, workers := range []int{1, 3, 8, 0} {
		if got := render(workers); !bytes.Equal(base, got) {
			t.Errorf("%d flush workers: trace differs from serial baseline", workers)
		}
	}
}
