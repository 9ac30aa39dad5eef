package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace event phases (the Chrome trace-event subset this package emits).
const (
	PhaseBegin    = "B" // span start, paired with a later PhaseEnd on the same track
	PhaseEnd      = "E" // span end
	PhaseComplete = "X" // self-contained span with an explicit duration
	PhaseInstant  = "i" // point event
	PhaseMeta     = "M" // metadata (process/thread names)
)

// TraceEvent is one record in Chrome trace-event JSON ("JSON Array
// Format" / the traceEvents envelope), loadable in Perfetto and
// chrome://tracing. Timestamps and durations are microseconds; a run's
// trace (rendered by internal/eventlog) carries them on the simulation's
// virtual clock, so a trace of a deterministic run is itself
// deterministic.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the on-disk envelope ("JSON Object Format").
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// WriteTrace serializes events as Chrome trace-event JSON, in the order
// given: a renderer that appends in the simulation's deterministic event
// order writes identical bytes for identical runs.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ReadTrace is the strict decoder for WriteTrace's output: unknown fields,
// unknown phases, malformed values, and unbalanced B/E spans are all
// errors, so a trace that decodes cleanly is loadable and well-nested.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f traceFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: decode trace: %w", err)
	}
	open := map[[2]int][]string{}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("obs: trace event %d: empty name", i)
		}
		switch ev.Phase {
		case PhaseBegin:
			key := [2]int{ev.PID, ev.TID}
			open[key] = append(open[key], ev.Name)
		case PhaseEnd:
			key := [2]int{ev.PID, ev.TID}
			stack := open[key]
			if len(stack) == 0 {
				return nil, fmt.Errorf("obs: trace event %d: E %q on pid=%d tid=%d with no open span",
					i, ev.Name, ev.PID, ev.TID)
			}
			if top := stack[len(stack)-1]; top != ev.Name {
				return nil, fmt.Errorf("obs: trace event %d: E %q does not match open span %q", i, ev.Name, top)
			}
			open[key] = stack[:len(stack)-1]
		case PhaseComplete:
			if ev.DurUs < 0 {
				return nil, fmt.Errorf("obs: trace event %d: X %q with negative duration", i, ev.Name)
			}
		case PhaseInstant, PhaseMeta:
		default:
			return nil, fmt.Errorf("obs: trace event %d: unknown phase %q", i, ev.Phase)
		}
		if ev.Phase != PhaseMeta && ev.TsUs < 0 {
			return nil, fmt.Errorf("obs: trace event %d: negative timestamp", i)
		}
	}
	for key, stack := range open {
		if len(stack) > 0 {
			return nil, fmt.Errorf("obs: unbalanced trace: %d span(s) still open on pid=%d tid=%d (innermost %q)",
				len(stack), key[0], key[1], stack[len(stack)-1])
		}
	}
	return f.TraceEvents, nil
}
