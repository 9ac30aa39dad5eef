// Package sim implements the deterministic discrete-event simulation engine
// underlying the CoCoA reproduction. It plays the role Glomosim plays in the
// paper: a virtual clock, an event calendar, and seeded random-number
// streams so that an entire scenario is a pure function of (config, seed).
//
// Virtual time is expressed in float64 seconds, the convention of wireless
// network simulators (ns-2, Glomosim), because the physics of the models
// (speeds in m/s, power in W) are naturally continuous.
package sim

import (
	"container/heap"
	"errors"
	"fmt"

	"cocoa/internal/telemetry"
)

// heapDepthBounds buckets sim.heap_depth, the calendar depth at each At.
var heapDepthBounds = []float64{0, 8, 64, 512, 4096, 32768}

// Time is a point in virtual time, in seconds since the simulation start.
type Time = float64

// ErrNegativeDelay is returned (via panic recovery paths in callers) when an
// event is scheduled in the past; the engine refuses to rewind the clock.
var ErrNegativeDelay = errors.New("sim: event scheduled in the past")

// Event is a scheduled callback. The zero value is invalid; events are
// created through Simulator.Schedule or Simulator.At.
type Event struct {
	time     Time
	seq      uint64
	index    int // heap index, -1 when not queued
	canceled bool
	fn       func()
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// eventQueue is a min-heap ordered by (time, seq). The sequence number makes
// event ordering fully deterministic for simultaneous events: ties fire in
// scheduling order.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e, ok := x.(*Event)
	if !ok {
		return // cannot happen: Push is only reached via heap.Push(*Event)
	}
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// arenaChunk is how many Events each arena block holds. Events are
// allocated from chunks rather than individually: a busy scenario schedules
// hundreds of thousands of short-lived events (MAC timers, delivery
// callbacks, ticks), and one heap allocation per event dominated the
// engine's allocation profile. Chunks are never reused for new events
// within a run — callers hold *Event across firing (Cancel after fire must
// stay a no-op) — but Reset rewinds the retained chunk list so consecutive
// runs on one simulator recycle their event storage.
const arenaChunk = 256

// maxRetainedChunks caps the chunk list a simulator keeps for Reset reuse
// (256 chunks = 65536 events ≈ 3 MB). Runs that schedule more events than
// that fall back to the historical drop-for-GC behavior for the excess, so
// a pathological endless simulation cannot grow its footprint without
// bound.
const maxRetainedChunks = 256

// Simulator owns the virtual clock and the event calendar.
type Simulator struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool

	// arena is the current Event allocation block; arenaPos indexes the
	// next free slot. chunks retains allocated blocks for reuse after
	// Reset: arena aliases chunks[chunkIdx] while chunkIdx is in range
	// (-1 before the first block), and overflow blocks past
	// maxRetainedChunks stay untracked.
	arena    []Event
	arenaPos int
	chunks   [][]Event
	chunkIdx int

	// processed counts events executed, for diagnostics and tests.
	processed uint64

	// Run telemetry (see Publish); seq and processed double as the
	// scheduled and dispatched counts. Nothing here feeds back.
	canceled  int
	newChunks int
	heapDepth telemetry.Tally
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{chunkIdx: -1, heapDepth: telemetry.NewTally(heapDepthBounds)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Reset rewinds the simulator to its initial state — clock at zero, empty
// calendar — while retaining the allocated event storage: the calendar
// heap's backing array and the current arena chunk are kept for the next
// run instead of being reallocated.
//
// Reuse contract: Reset recycles Event slots, so it must only be called
// once no *Event obtained from the previous run can be used again (the
// Cancel-after-fire no-op guarantee does not survive a Reset). The scratch
// reuse path upholds this by resetting only after the previous run's team
// has been discarded.
func (s *Simulator) Reset() {
	// Drop queued events (and their closures) but keep the heap's capacity.
	for i := range s.queue {
		s.queue[i] = nil
	}
	s.queue = s.queue[:0]
	// Clear every retained chunk so no stale closure or heap index
	// survives into the slots the next run will hand out, then rewind the
	// arena to the first one. An untracked overflow block (past the
	// retention cap) is simply dropped here.
	for _, c := range s.chunks {
		for i := range c {
			c[i] = Event{}
		}
	}
	s.chunkIdx = -1
	s.arena = nil
	if len(s.chunks) > 0 {
		s.chunkIdx = 0
		s.arena = s.chunks[0]
	}
	s.arenaPos = 0
	s.now = 0
	s.seq = 0
	s.processed = 0
	s.canceled, s.newChunks = 0, 0
	s.heapDepth = telemetry.NewTally(heapDepthBounds)
	s.stopped = false
}

// Pending returns the number of events waiting in the calendar, including
// canceled events that have not yet been drained.
func (s *Simulator) Pending() int { return len(s.queue) }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Counters is a value copy of a run's sim.* counts. It stays publishable
// after the simulator is Reset for another run.
type Counters struct {
	scheduled, dispatched, canceled, arenaChunks int
	heapDepth                                    telemetry.Tally
}

// Counters returns the run's sim.* counts. A simulator recycled through
// Reset allocates fewer arena chunks than a fresh one.
func (s *Simulator) Counters() Counters {
	return Counters{int(s.seq), int(s.processed), s.canceled, s.newChunks, s.heapDepth}
}

// Publish adds the counts to reg.
func (c *Counters) Publish(reg *telemetry.Registry) {
	reg.Add("sim.events_scheduled", c.scheduled)
	reg.Add("sim.events_dispatched", c.dispatched)
	reg.Add("sim.events_canceled", c.canceled)
	reg.Add("sim.arena_chunks", c.arenaChunks)
	reg.AddTally("sim.heap_depth", &c.heapDepth)
}

// Schedule arranges for fn to run delay seconds from now. A zero delay runs
// the event after all events already scheduled for the current instant.
// It panics on negative delay: that is always a programming error in a
// discrete-event model, never a recoverable runtime condition.
func (s *Simulator) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v: %v", delay, ErrNegativeDelay))
	}
	return s.At(s.now+delay, fn)
}

// At arranges for fn to run at absolute virtual time t (>= Now).
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: time %v before now %v: %v", t, s.now, ErrNegativeDelay))
	}
	if s.arenaPos == len(s.arena) {
		s.chunkIdx++
		switch {
		case s.chunkIdx < len(s.chunks):
			// A retained chunk from a previous run; its slots are fully
			// overwritten below at hand-out time.
			s.arena = s.chunks[s.chunkIdx]
		case len(s.chunks) < maxRetainedChunks:
			s.arena = make([]Event, arenaChunk)
			s.chunks = append(s.chunks, s.arena)
			s.newChunks++
		default:
			// Past the retention cap: untracked, dropped for the GC when
			// the next block replaces it (the pre-reuse behavior).
			s.arena = make([]Event, arenaChunk)
			s.newChunks++
		}
		s.arenaPos = 0
	}
	e := &s.arena[s.arenaPos]
	s.arenaPos++
	*e = Event{time: t, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, e)
	s.heapDepth.Observe(len(s.queue))
	return e
}

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	e.fn = nil // release the closure; canceled events never fire
	if e.index >= 0 {
		heap.Remove(&s.queue, e.index)
	}
	s.canceled++
}

// Stop makes the current Run call return after the in-flight event
// completes. The calendar is preserved; Run may be called again.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the single next event, advancing the clock to its time.
// It returns false when the calendar is empty.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e, ok := heap.Pop(&s.queue).(*Event)
		if !ok {
			return false // cannot happen: the queue only holds *Event
		}
		if e.canceled {
			continue
		}
		s.now = e.time
		s.processed++
		e.canceled = true // mark fired so Cancel after firing is a no-op
		fn := e.fn
		e.fn = nil // let the GC reclaim the closure before the chunk dies
		fn()
		return true
	}
	return false
}

// Run executes events until the calendar empties or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with time <= horizon, then sets the clock to the
// horizon. Events scheduled beyond the horizon stay queued.
func (s *Simulator) RunUntil(horizon Time) {
	s.stopped = false
	for !s.stopped {
		if len(s.queue) == 0 || s.queue[0].time > horizon {
			break
		}
		s.Step()
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}

// EachTick schedules fn to run every interval seconds starting at start,
// until the returned stop function is called or the simulation ends. fn
// receives the tick time. This is the engine-level building block for the
// paper's per-second metric sampling and the beacon-period timeline.
func (s *Simulator) EachTick(start, interval Time, fn func(t Time)) (stop func()) {
	if interval <= 0 {
		panic("sim: EachTick interval must be positive")
	}
	stopped := false
	var schedule func(t Time)
	schedule = func(t Time) {
		s.At(t, func() {
			if stopped {
				return
			}
			fn(t)
			if !stopped {
				schedule(t + interval)
			}
		})
	}
	schedule(start)
	return func() { stopped = true }
}
