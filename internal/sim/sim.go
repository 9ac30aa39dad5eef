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
	canceled bool
	fn       func()
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// calEntry is one calendar slot. The (time, seq) key is stored inline
// beside the event, so sifting compares contiguous entries and never
// dereferences an event; the sequence number makes ordering fully
// deterministic for simultaneous events: ties fire in scheduling order.
type calEntry struct {
	time Time
	seq  uint64
	ev   *Event
}

func (a *calEntry) before(b *calEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// calendar is a binary min-heap of entries ordered by (time, seq). Canceled
// events keep their entries until they reach the top (see Simulator.Cancel);
// the key is a total order, so every correct heap pops the same sequence.
type calendar []calEntry

// push adds x, sifting a hole up from the new leaf.
func (q *calendar) push(x calEntry) {
	h := append(*q, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	*q = h
}

// pop removes and returns the top entry, moving the last leaf into the
// vacated root.
func (q *calendar) pop() calEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = calEntry{}
	h = h[:n]
	if n > 0 {
		h.down(0, x)
	}
	*q = h
	return top
}

// down places x at hole i or below it, moving smaller children up.
func (h calendar) down(i int, x calEntry) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
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
	now   Time
	seq   uint64
	queue calendar
	// live counts queued events that are not canceled: the queue may also
	// hold canceled entries not yet discarded.
	live    int
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
	clear(s.queue)
	s.queue = s.queue[:0]
	s.live = 0
	// Clear every retained chunk so no stale closure or cancel mark
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

// Pending returns the number of live events waiting in the calendar;
// canceled events are never counted.
func (s *Simulator) Pending() int { return s.live }

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
	*e = Event{time: t, fn: fn}
	s.queue.push(calEntry{time: t, seq: s.seq, ev: e})
	s.seq++
	s.live++
	s.heapDepth.Observe(s.live)
	return e
}

// Cancel withdraws a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op.
//
// The event's calendar entry stays in place and is discarded when it
// reaches the top or when the calendar is compacted (see retire), so cancel
// churn cannot grow the calendar without bound.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	e.fn = nil // release the closure; canceled events never fire
	s.canceled++
	s.retire()
}

// retire takes one event out of the live count. Once the calendar's
// canceled entries outnumber its live ones, it drops every canceled entry
// and re-heapifies the rest, so the calendar never holds more than twice
// its live events.
func (s *Simulator) retire() {
	s.live--
	if len(s.queue)-s.live <= s.live {
		return
	}
	q := s.queue[:0]
	for _, x := range s.queue {
		if !x.ev.canceled {
			q = append(q, x)
		}
	}
	clear(s.queue[len(q):])
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i, q[i])
	}
	s.queue = q
}

// dropCanceled discards canceled entries from the top of the calendar, so
// that afterwards the top, if any, is the next live event.
func (s *Simulator) dropCanceled() {
	for len(s.queue) > 0 && s.queue[0].ev.canceled {
		s.queue.pop()
	}
}

// Stop makes the current Run call return after the in-flight event
// completes. The calendar is preserved; Run may be called again.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the single next event, advancing the clock to its time.
// It returns false when the calendar is empty.
func (s *Simulator) Step() bool {
	s.dropCanceled()
	if len(s.queue) == 0 {
		return false
	}
	x := s.queue.pop()
	s.retire()
	e := x.ev
	s.now = x.time
	s.processed++
	e.canceled = true // mark fired so Cancel after firing is a no-op
	fn := e.fn
	e.fn = nil // let the GC reclaim the closure before the chunk dies
	fn()
	return true
}

// Run executes events until the calendar empties or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with time <= horizon, then sets the clock to the
// horizon. Events scheduled beyond the horizon stay queued. Canceled
// entries are discarded before the horizon test, so a canceled top entry
// inside the horizon never lets a live event beyond it fire.
func (s *Simulator) RunUntil(horizon Time) {
	s.stopped = false
	for !s.stopped {
		s.dropCanceled()
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
	// One event is pending at a time, so a single closure serves every
	// tick, reading its instant from next.
	stopped := false
	next := start
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		t := next
		fn(t)
		if !stopped {
			next = t + interval
			s.At(next, tick)
		}
	}
	s.At(start, tick)
	return func() { stopped = true }
}
