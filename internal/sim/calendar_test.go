package sim

import (
	"fmt"
	"testing"
)

// A canceled entry at the top of the calendar, inside the horizon, must not
// let RunUntil fire a live event beyond the horizon.
func TestRunUntilSkipsCanceledTop(t *testing.T) {
	s := New()
	early := s.At(1, func() { t.Error("canceled event fired") })
	late := false
	s.At(5, func() { late = true })
	s.Cancel(early)
	s.RunUntil(2)
	if late {
		t.Fatal("RunUntil(2) fired the event at t=5")
	}
	if s.Now() != 2 || s.Pending() != 1 {
		t.Fatalf("now=%v pending=%d, want 2 and 1", s.Now(), s.Pending())
	}
	s.RunUntil(5)
	if !late {
		t.Fatal("RunUntil(5) did not fire the event at t=5")
	}
}

// Pending counts live events only, wherever the canceled ones sit.
func TestPendingExcludesCanceled(t *testing.T) {
	s := New()
	var evs []*Event
	for _, at := range []Time{1, 2, 3, 4} {
		evs = append(evs, s.At(at, func() {}))
	}
	s.Cancel(evs[2]) // an inner entry
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d after one cancel, want 3", got)
	}
	s.Cancel(evs[0]) // the top entry
	s.Cancel(evs[0]) // a second cancel changes nothing
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d after two cancels, want 2", got)
	}
	if !s.Step() || s.Now() != 2 || s.Pending() != 1 {
		t.Fatalf("after a step: now=%v pending=%d, want 2 and 1", s.Now(), s.Pending())
	}
}

// Scheduling and canceling far-future events in a loop must not grow the
// calendar: canceled entries are compacted away once they outnumber the
// live ones.
func TestCancelChurnBounded(t *testing.T) {
	s := New()
	const live = 100
	for i := 0; i < live; i++ {
		s.At(Time(1e6+i), func() {})
	}
	var capAfterWarmup int
	for i := 0; i < 100_000; i++ {
		s.Cancel(s.At(Time(1e9+i), func() {}))
		if len(s.queue) > 2*s.Pending() {
			t.Fatalf("iteration %d: %d calendar entries for %d live events", i, len(s.queue), s.Pending())
		}
		if i == 1000 {
			capAfterWarmup = cap(s.queue)
		}
	}
	if c := cap(s.queue); c > capAfterWarmup {
		t.Fatalf("calendar backing array grew from %d to %d under cancel churn", capAfterWarmup, c)
	}
	if s.Pending() != live {
		t.Fatalf("Pending = %d, want %d", s.Pending(), live)
	}
	s.Run()
	if s.Processed() != live {
		t.Fatalf("processed %d events, want %d", s.Processed(), live)
	}
}

// FuzzCalendar drives the simulator with random schedule, cancel, step and
// RunUntil operations and checks every firing against a brute-force model
// that keeps all events in a list and fires the live one with the least
// (time, seq) key.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 1, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 3, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 9, 0, 2, 1, 1, 3, 4, 0, 7, 3, 20, 2, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 1, 0, 1, 1, 1, 2, 3, 9, 0, 1, 2, 0})
	f.Add([]byte{0, 1, 0, 5, 1, 0, 3, 4}) // canceled top inside the horizon
	f.Fuzz(func(t *testing.T, data []byte) {
		type modelEvent struct {
			time      Time
			seq       int
			done      bool // fired or canceled
			scheduled *Event
		}
		s := New()
		var model []*modelEvent
		var fired []int // seqs in firing order
		var want []int
		now := Time(0)

		// fireNext fires the model's least live event with time <= horizon.
		fireNext := func(horizon Time) bool {
			var best *modelEvent
			for _, m := range model {
				if m.done || m.time > horizon {
					continue
				}
				if best == nil || m.time < best.time || (m.time == best.time && m.seq < best.seq) {
					best = m
				}
			}
			if best == nil {
				return false
			}
			best.done = true
			now = best.time
			want = append(want, best.seq)
			return true
		}
		check := func(op string) {
			t.Helper()
			if len(fired) != len(want) {
				t.Fatalf("%s: fired %v, model fired %v", op, fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("%s: fired %v, model fired %v", op, fired, want)
				}
			}
			live := 0
			for _, m := range model {
				if !m.done {
					live++
				}
			}
			if s.Now() != now || s.Pending() != live {
				t.Fatalf("%s: now=%v pending=%d, model now=%v pending=%d", op, s.Now(), s.Pending(), now, live)
			}
			if len(s.queue) > 2*live {
				t.Fatalf("%s: %d calendar entries for %d live events", op, len(s.queue), live)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			switch data[i] % 4 {
			case 0: // schedule; small delays make ties common
				m := &modelEvent{time: now + Time(arg%8), seq: len(model)}
				seq := m.seq
				m.scheduled = s.Schedule(Time(arg%8), func() { fired = append(fired, seq) })
				model = append(model, m)
			case 1: // cancel any event, fired and canceled ones included
				if len(model) == 0 {
					continue
				}
				m := model[arg%len(model)]
				s.Cancel(m.scheduled)
				m.done = true
			case 2: // step
				got := s.Step()
				if exp := fireNext(1e300); got != exp {
					t.Fatalf("Step returned %v, model %v", got, exp)
				}
			case 3: // run until a horizon near the clock
				h := now + Time(arg%16)/2
				s.RunUntil(h)
				for fireNext(h) {
				}
				if now < h {
					now = h
				}
			}
			check(fmt.Sprintf("op %d (kind %d)", i/2, data[i]%4))
		}
		s.Run()
		for fireNext(1e300) {
		}
		check("final Run")
	})
}

// BenchmarkEventQueueDeep holds the calendar at about 770 pending events,
// the mean depth of a 1000-robot swarm run, and measures one
// dispatch-plus-reschedule per iteration.
func BenchmarkEventQueueDeep(b *testing.B) {
	const depth = 770
	s := New()
	x := uint64(1)
	delay := func() Time {
		x = x*6364136223846793005 + 1442695040888963407
		return Time(x>>40) / (1 << 24) // uniform in [0, 1) seconds
	}
	for i := 0; i < depth; i++ {
		s.Schedule(delay(), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		s.Schedule(delay(), func() {})
	}
}
