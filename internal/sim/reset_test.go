package sim

import (
	"reflect"
	"testing"

	"cocoa/internal/telemetry"
)

// Reset must rewind the simulator to a fresh-constructed state: clock at
// zero, empty calendar, and a second run over the recycled storage behaves
// exactly like a first run — its published counts included, except the
// arena chunks the second run no longer allocates.
func TestSimulatorReset(t *testing.T) {
	s := New()
	counts := func() map[string]int64 {
		reg := telemetry.NewRegistry()
		s.Publish(reg)
		snap := reg.Snapshot()
		out := map[string]int64{"heap_depth.count": snap.Histograms[0].Count,
			"heap_depth.sum": int64(snap.Histograms[0].Sum)}
		for _, c := range snap.Counters {
			out[c.Name] = c.Value
		}
		return out
	}
	runOnce := func() (fired []Time, processed uint64) {
		for _, at := range []Time{3, 1, 2} {
			at := at
			s.At(at, func() { fired = append(fired, at) })
		}
		// One canceled event and one event left beyond the horizon, so
		// Reset has both kinds of leftover state to clear.
		s.Cancel(s.At(1.5, func() { t.Error("canceled event fired") }))
		s.At(100, func() { t.Error("beyond-horizon event fired") })
		s.RunUntil(10)
		return fired, s.Processed()
	}

	fired1, proc1 := runOnce()
	// Calendar depth after each of the five At calls: 1, 2, 3, 4, then 4
	// again (the Cancel removed one).
	want := map[string]int64{"sim.events_scheduled": 5, "sim.events_dispatched": 3,
		"sim.events_canceled": 1, "sim.arena_chunks": 1, "heap_depth.count": 5, "heap_depth.sum": 14}
	if got := counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("first run published %v, want %v", got, want)
	}
	if s.Now() != 10 || s.Pending() != 1 {
		t.Fatalf("pre-reset: now=%v pending=%d, want 10 and 1", s.Now(), s.Pending())
	}

	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Processed() != 0 {
		t.Fatalf("post-reset: now=%v pending=%d processed=%d, want all zero",
			s.Now(), s.Pending(), s.Processed())
	}

	fired2, proc2 := runOnce()
	want["sim.arena_chunks"] = 0
	if got := counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("run after Reset published %v, want %v", got, want)
	}
	if len(fired1) != 3 || len(fired2) != 3 {
		t.Fatalf("fired %d then %d events, want 3 and 3", len(fired1), len(fired2))
	}
	for i := range fired1 {
		if fired1[i] != fired2[i] {
			t.Fatalf("firing order diverged after reset: %v vs %v", fired1, fired2)
		}
	}
	if proc1 != proc2 {
		t.Fatalf("processed %d then %d, want equal", proc1, proc2)
	}
}

// A reset simulator reuses its arena chunk: scheduling after Reset must not
// allocate a fresh chunk until the retained one is exhausted.
func TestSimulatorResetReusesArena(t *testing.T) {
	s := New()
	s.At(1, func() {})
	chunk0 := &s.arena[0]
	s.Run()
	s.Reset()
	e := s.At(2, func() {})
	if e != chunk0 {
		t.Fatal("first event after Reset not allocated from the retained chunk")
	}
}
