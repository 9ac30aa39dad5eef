package eventlog

import (
	"cocoa/internal/cocoa"
	"cocoa/internal/obs"
)

// Trace renders a run's event stream as a span trace in Chrome trace-event
// JSON (obs.WriteTrace), loadable in Perfetto. It reads the same events the
// JSONL Writer logs, so the trace and the event log are two views of one
// stream:
//
//   - run: a span on the event-loop track (tid 0) from 0 to the run's
//     DurationS, its args taken from the config;
//   - sampling-window: a span from each window-start to its window-end;
//   - mac-frame: an instant per beacon-sent; a beacon is secondary when
//     its sender is unequipped (robot >= NumEquipped);
//   - belief-update: a zero-length span on tid 1+robot for each fix or
//     fix-missed that applied beacons.
//
// Timestamps are the events' virtual times, so identical runs render
// identical traces at any worker count.
type Trace struct {
	numEquipped int
	endS        float64
	events      []obs.TraceEvent
	// window is set while a sampling-window span is open.
	window bool
}

// NewTrace starts the trace of a run of cfg. A non-empty process titles
// the trace's process track (cocoad passes the job ID).
func NewTrace(cfg cocoa.Config, process string) *Trace {
	t := &Trace{numEquipped: cfg.NumEquipped, endS: float64(cfg.DurationS)}
	if process != "" {
		t.events = append(t.events, obs.TraceEvent{
			Name: "process_name", Phase: obs.PhaseMeta, Args: map[string]any{"name": process},
		})
	}
	t.events = append(t.events,
		obs.TraceEvent{Name: "thread_name", Phase: obs.PhaseMeta, Args: map[string]any{"name": "event-loop"}},
		obs.TraceEvent{Name: "run", Phase: obs.PhaseBegin, Args: map[string]any{
			"seed": cfg.Seed, "robots": cfg.NumRobots, "duration_s": int(cfg.DurationS),
		}},
	)
	return t
}

// Observer returns the function that feeds the trace: set it as
// Config.Observer, or call it from one that also feeds other sinks.
func (t *Trace) Observer() cocoa.Observer { return t.observe }

func (t *Trace) observe(e cocoa.Event) {
	atUs := e.TimeS * 1e6
	switch e.Kind {
	case cocoa.EventWindowStart:
		t.closeWindow(atUs)
		t.events = append(t.events, obs.TraceEvent{Name: "sampling-window", Phase: obs.PhaseBegin, TsUs: atUs})
		t.window = true
	case cocoa.EventWindowEnd:
		t.closeWindow(atUs)
	case cocoa.EventBeaconSent:
		t.events = append(t.events, obs.TraceEvent{
			Name: "mac-frame", Phase: obs.PhaseInstant, TsUs: atUs, Scope: "t",
			Args: map[string]any{"robot": e.Robot, "secondary": e.Robot >= t.numEquipped},
		})
	case cocoa.EventFix, cocoa.EventFixMissed:
		if e.Beacons > 0 {
			t.events = append(t.events, obs.TraceEvent{
				Name: "belief-update", Phase: obs.PhaseComplete, TsUs: atUs, TID: 1 + e.Robot,
				Args: map[string]any{"beacons": e.Beacons},
			})
		}
	}
}

// closeWindow ends the open sampling-window span, if any, at atUs.
func (t *Trace) closeWindow(atUs float64) {
	if t.window {
		t.events = append(t.events, obs.TraceEvent{Name: "sampling-window", Phase: obs.PhaseEnd, TsUs: atUs})
		t.window = false
	}
}

// Events returns the rendered trace, closed at the run's end: a window
// whose scheduled end fell past DurationS and the run span both end at
// DurationS, so the trace is balanced however the stream stopped.
func (t *Trace) Events() []obs.TraceEvent {
	out := append([]obs.TraceEvent(nil), t.events...)
	endUs := t.endS * 1e6
	if t.window {
		out = append(out, obs.TraceEvent{Name: "sampling-window", Phase: obs.PhaseEnd, TsUs: endUs})
	}
	return append(out, obs.TraceEvent{Name: "run", Phase: obs.PhaseEnd, TsUs: endUs})
}
