package eventlog

import (
	"bytes"
	"math"
	"testing"
	"unicode/utf8"

	"cocoa/internal/cocoa"
	"cocoa/internal/geom"
	"cocoa/internal/obs"
)

// isFinite reports whether v survives JSON encoding (NaN and Inf do not).
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// FuzzEventlogRoundTrip drives two properties at once:
//
//  1. Read never panics, whatever bytes it is fed — truncated lines,
//     corrupt JSON, binary garbage. It returns events or an error.
//  2. For encodable events, Writer -> Read is lossless field-by-field;
//     for non-encodable ones (non-finite floats) the writer reports the
//     error from Flush and counts nothing.
func FuzzEventlogRoundTrip(f *testing.F) {
	f.Add(1.5, "fix", 3, 10.0, 20.0, 2.25, 4, []byte(`{"timeS":1,"kind":"fix"}`))
	f.Add(0.0, "window-start", -1, 0.0, 0.0, 0.0, 0, []byte(``))
	f.Add(99.75, "beacon-sent", 7, -5.5, 199.9, 0.0, 0, []byte("{\"timeS\": 1}\nnot json\n"))
	f.Add(3.0, "crash", 11, 1.0, 2.0, 0.0, 0, []byte("{\"timeS\":"))
	f.Add(math.NaN(), "wake", 2, math.Inf(1), 0.0, -1.0, -3, []byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, timeS float64, kind string, robot int,
		px, py, errM float64, beacons int, raw []byte) {
		// Property 1: the decoder never panics on arbitrary input.
		if events, err := Read(bytes.NewReader(raw)); err == nil {
			for _, e := range events {
				_ = e // decoded events are plain data; nothing to check
			}
		}

		e := cocoa.Event{
			TimeS:   timeS,
			Kind:    cocoa.EventKind(kind),
			Robot:   robot,
			Pos:     geom.Vec2{X: px, Y: py},
			ErrM:    errM,
			Beacons: beacons,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Observer()(e)

		encodable := isFinite(timeS) && isFinite(px) && isFinite(py) && isFinite(errM)
		if !encodable {
			// Property 2b: the swallowed encode error surfaces at Flush.
			if err := w.Flush(); err == nil {
				t.Fatalf("non-finite event %+v flushed cleanly", e)
			}
			if w.Count() != 0 {
				t.Fatalf("Count = %d after failed encode", w.Count())
			}
			return
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if w.Count() != 1 {
			t.Fatalf("Count = %d, want 1", w.Count())
		}
		// Property 2a: decode returns the event unchanged.
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if len(back) != 1 {
			t.Fatalf("round-trip produced %d events", len(back))
		}
		if !utf8.ValidString(kind) {
			// encoding/json replaces invalid UTF-8 with U+FFFD; the kind
			// cannot round-trip exactly. Everything else still must.
			back[0].Kind = e.Kind
		}
		if back[0] != e {
			t.Fatalf("round trip mutated the event:\n in: %+v\nout: %+v", e, back[0])
		}
	})
}

// fuzzKinds maps a stream byte onto an event kind; the last entry is a
// kind the renderer does not know.
var fuzzKinds = []cocoa.EventKind{
	cocoa.EventWindowStart, cocoa.EventWindowEnd, cocoa.EventBeaconSent,
	cocoa.EventFix, cocoa.EventFixMissed, cocoa.EventSleep, cocoa.EventWake,
	cocoa.EventSyncRecv, cocoa.EventFailure, cocoa.EventCrash,
	cocoa.EventRecover, "bogus",
}

// FuzzTraceRender feeds arbitrary event sequences through the trace
// renderer: any kinds in any order, robots outside the team (negative or
// past NumRobots), any beacon counts, and streams that stop anywhere — in
// particular mid-window. Each 4-byte chunk of stream is one event (kind,
// robot, beacons, time step); times only move forward, as a run's do. The
// rendered trace must pass the strict decoder, and hold one record per
// event it renders.
func FuzzTraceRender(f *testing.F) {
	f.Add(uint8(10), uint8(5), uint16(120), []byte{})
	f.Add(uint8(4), uint8(2), uint16(60), []byte{
		0, 0xff, 0, 0, // window-start
		2, 1, 0, 4, // beacon-sent by an equipped robot
		2, 3, 0, 1, // beacon-sent by an unequipped one
		1, 0xff, 0, 8, // window-end
		3, 2, 3, 0, // fix with beacons
		4, 3, 0, 0, // fix-missed without beacons
	})
	f.Add(uint8(4), uint8(2), uint16(0), []byte{1, 0, 0, 0, 0, 0x80, 0x80, 0xff, 0, 0, 0, 0, 11, 9, 9, 9, 3, 0x7f, 1})

	f.Fuzz(func(t *testing.T, numRobots, numEquipped uint8, durationS uint16, stream []byte) {
		cfg := cocoa.DefaultConfig()
		cfg.NumRobots, cfg.NumEquipped, cfg.DurationS = int(numRobots), int(numEquipped), float64(durationS)
		tr := NewTrace(cfg, "fuzz")
		observe := tr.Observer()
		want := map[string]int{}
		now := 0.0
		for ; len(stream) >= 4; stream = stream[4:] {
			now += float64(stream[3]) / 4
			e := cocoa.Event{
				TimeS:   now,
				Kind:    fuzzKinds[int(stream[0])%len(fuzzKinds)],
				Robot:   int(int8(stream[1])),
				Beacons: int(int8(stream[2])),
			}
			switch {
			case e.Kind == cocoa.EventWindowStart:
				want["sampling-window"]++
			case e.Kind == cocoa.EventBeaconSent:
				want["mac-frame"]++
			case (e.Kind == cocoa.EventFix || e.Kind == cocoa.EventFixMissed) && e.Beacons > 0:
				want["belief-update"]++
			}
			observe(e)
		}

		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, tr.Events()); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		events, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("rendered trace fails the strict decoder: %v", err)
		}
		got := map[string]int{}
		for _, ev := range events {
			if ev.Phase != obs.PhaseEnd {
				got[ev.Name]++
			}
			if ev.Name == "mac-frame" {
				robot := ev.Args["robot"].(float64)
				if secondary := ev.Args["secondary"].(bool); secondary != (robot >= float64(numEquipped)) {
					t.Fatalf("mac-frame of robot %v marked secondary=%v with %d equipped", robot, secondary, numEquipped)
				}
			}
		}
		for _, name := range []string{"sampling-window", "mac-frame", "belief-update"} {
			if got[name] != want[name] {
				t.Fatalf("%d %s records, want %d", got[name], name, want[name])
			}
		}
		if got["run"] != 1 {
			t.Fatalf("%d run spans, want 1", got["run"])
		}
	})
}
