package cocoa

import (
	"bytes"
	"reflect"
	"testing"

	"cocoa/internal/obs"
	"cocoa/internal/telemetry"
)

// The observability layer inherits telemetry's prime directive: progress
// publication and span tracing record, they never steer. Attaching both
// must not perturb a single bit of any Result — nor the run's telemetry —
// at any intra-run worker count. (make check runs this under
// -race, which also exercises the progress gauge against concurrent
// readers of the serve layer's shape.)
func TestObsProgressTraceOnOffByteIdentical(t *testing.T) {
	t.Parallel()
	type outcome struct {
		result     *Result
		resultJSON string
		telemetry  telemetry.Snapshot
	}
	run := func(workers int, withObs bool) outcome {
		cfg := testConfig()
		cfg.UpdateWorkers = workers
		var progress *obs.Progress
		if withObs {
			progress = &obs.Progress{}
			cfg.Progress = progress
			cfg.Trace = obs.NewTrace()
		}
		b, res, tel := runTelemetry(t, cfg, nil)
		if withObs {
			// The run must have actually published and recorded.
			tick, total := progress.Ticks()
			if total == 0 || tick != total {
				t.Errorf("workers=%d: progress ended at %d/%d, want full", workers, tick, total)
			}
			if cfg.Trace.Len() == 0 {
				t.Errorf("workers=%d: trace recorded no events", workers)
			}
			var buf bytes.Buffer
			if err := cfg.Trace.WriteJSON(&buf); err != nil {
				t.Fatalf("workers=%d: WriteJSON: %v", workers, err)
			}
			if _, err := obs.ReadTrace(&buf); err != nil {
				t.Errorf("workers=%d: trace does not round-trip balanced: %v", workers, err)
			}
		}
		return outcome{result: res, resultJSON: string(b), telemetry: tel}
	}

	for _, workers := range []int{1, 8} {
		off := run(workers, false)
		on := run(workers, true)
		if off.resultJSON != on.resultJSON {
			t.Errorf("UpdateWorkers=%d: Result differs with progress+tracing attached", workers)
		}
		// Stronger than the JSON check: the archived Config must not retain
		// the Progress/Trace handles (scrubObservers), so the whole struct
		// compares equal too.
		if !reflect.DeepEqual(off.result, on.result) {
			t.Errorf("UpdateWorkers=%d: Result structs differ with progress+tracing attached (observer handles leaked into Result.Config?)", workers)
		}
		if !reflect.DeepEqual(off.telemetry, on.telemetry) {
			t.Errorf("UpdateWorkers=%d: telemetry differs with progress+tracing attached\noff: %+v\non:  %+v",
				workers, off.telemetry, on.telemetry)
		}
	}
}

// Identical runs must record identical traces: the recorder works on the
// simulation's virtual clock and the event loop's deterministic order, so
// the exported JSON is byte-for-byte reproducible, at any worker count.
func TestObsTraceDeterministic(t *testing.T) {
	traceJSON := func(workers int) []byte {
		cfg := testConfig()
		cfg.UpdateWorkers = workers
		cfg.Trace = obs.NewTrace()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := traceJSON(1)
	for _, workers := range []int{1, 8} {
		if got := traceJSON(workers); !bytes.Equal(base, got) {
			t.Errorf("UpdateWorkers=%d: trace differs from serial baseline", workers)
		}
	}
}
