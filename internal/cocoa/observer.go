package cocoa

import (
	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// Event is one observable occurrence in a run. Observers receive every
// event in virtual-time order; the event log in internal/eventlog
// serializes them to JSONL for offline analysis.
type Event struct {
	TimeS float64   `json:"timeS"`
	Kind  EventKind `json:"kind"`
	Robot int       `json:"robot"`
	// Pos is the event's associated position: the fix for EventFix, the
	// advertised coordinates for EventBeaconSent.
	Pos geom.Vec2 `json:"pos"`
	// ErrM is the localization error at fix time (EventFix only).
	ErrM float64 `json:"errM,omitempty"`
	// Beacons is the count applied to the fix (EventFix) or received in
	// the closing window (EventWindowEnd).
	Beacons int `json:"beacons,omitempty"`
}

// EventKind enumerates observable occurrences.
type EventKind string

// Event kinds.
const (
	EventWindowStart EventKind = "window-start"
	EventWindowEnd   EventKind = "window-end"
	EventBeaconSent  EventKind = "beacon-sent"
	EventFix         EventKind = "fix"
	EventFixMissed   EventKind = "fix-missed"
	EventSleep       EventKind = "sleep"
	EventWake        EventKind = "wake"
	EventSyncRecv    EventKind = "sync-received"
	EventFailure     EventKind = "failure"
	EventCrash       EventKind = "crash"
	EventRecover     EventKind = "recover"
)

// Observer consumes run events. Implementations must be fast; they run
// inline with the simulation.
type Observer func(Event)

// Observe registers an observer before Run. Multiple observers are called
// in registration order.
func (t *Team) Observe(o Observer) {
	t.observers = append(t.observers, o)
}

// emit delivers an event to all observers. The zero-observer case is the
// common one and costs only a nil check.
func (t *Team) emit(kind EventKind, robot int, pos geom.Vec2, errM float64, beacons int) {
	if len(t.observers) == 0 {
		return
	}
	e := Event{
		TimeS:   float64(t.sim.Now()),
		Kind:    kind,
		Robot:   robot,
		Pos:     pos,
		ErrM:    errM,
		Beacons: beacons,
	}
	for _, o := range t.observers {
		o(e)
	}
}

// emitSimple is emit without position or measurements.
func (t *Team) emitSimple(kind EventKind, robot int) {
	t.emit(kind, robot, geom.Vec2{}, 0, 0)
}

// failRobot powers a robot off mid-run: it stops beaconing, forwarding,
// and moving (a dead robot in the rubble). Localization state freezes. The
// medium detaches the robot entirely: a dead radio is not a receiver, so
// the MAC neither visits nor counts it for the rest of the run.
func (t *Team) failRobot(now sim.Time, r *robot) {
	if r.failed {
		return
	}
	r.failed = true
	r.way.HoldUntil(now, t.cfg.DurationS+1)
	r.nic.PowerOff()
	t.med.Detach(r.id)
	t.emitSimple(EventFailure, r.id)
}

// crashRobot starts a fault-injection outage: the radio powers off (no
// beacons, no forwarding, no energy draw), but unlike failRobot the robot
// keeps driving — its odometry drifts uncorrected until recovery.
func (t *Team) crashRobot(r *robot) {
	if r.failed || r.crashed {
		return
	}
	r.crashed = true
	t.crashes++
	r.nic.PowerOff()
	// Compaction: a crashed radio is detached from the medium so surviving
	// robots' frames stop paying (and stop drawing per-receiver noise for)
	// a station that cannot receive. Recovery re-attaches it.
	t.med.Detach(r.id)
	t.emitSimple(EventCrash, r.id)
}

// recoverRobot ends an outage: the radio comes back awake and the robot
// stays up until the next window end re-arms its sleep schedule (it never
// un-learned the schedule; its clock just kept drifting while down).
func (t *Team) recoverRobot(r *robot) {
	if r.failed || !r.crashed {
		return
	}
	r.crashed = false
	t.recoveries++
	t.med.Attach(r.id, r.nic)
	r.nic.Wake()
	t.emitSimple(EventRecover, r.id)
}
