// Package energy implements the wireless-interface energy model CoCoA
// adopts from Feeney & Nilsson's IEEE 802.11 measurements: per-state power
// draw for transmit, receive, idle, and sleep, plus the cost of powering the
// card on and off. The paper's key numbers are an idle draw of 900 mW
// versus a sleep draw of 50 mW — the gap CoCoA's coordination exploits.
package energy

import (
	"fmt"

	"cocoa/internal/sim"
)

// State is the radio power state.
type State int

// Radio power states. Off consumes nothing; Sleep keeps the card powered
// but deaf; Idle listens; Rx and Tx are active reception and transmission.
const (
	Off State = iota + 1
	Sleep
	Idle
	Rx
	Tx
)

var stateNames = map[State]string{
	Off:   "off",
	Sleep: "sleep",
	Idle:  "idle",
	Rx:    "rx",
	Tx:    "tx",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Params holds the per-state power draw in watts and transition costs in
// joules.
type Params struct {
	TxW    float64 // transmit power draw
	RxW    float64 // receive power draw
	IdleW  float64 // idle listening draw (paper: 900 mW)
	SleepW float64 // sleep draw (paper: 50 mW)
	// TransitionJ is the energy cost of each sleep<->awake or on/off
	// power transition of the card.
	TransitionJ float64
}

// DefaultParams returns the Feeney & Nilsson–derived values the paper uses:
// idle 0.9 W, sleep 0.05 W, receive comparable to idle, transmit higher.
func DefaultParams() Params {
	return Params{
		TxW:         1.4,
		RxW:         1.0,
		IdleW:       0.9,
		SleepW:      0.05,
		TransitionJ: 0.02,
	}
}

// Validate reports whether the parameters are physically sensible.
func (p Params) Validate() error {
	if p.TxW < 0 || p.RxW < 0 || p.IdleW < 0 || p.SleepW < 0 || p.TransitionJ < 0 {
		return fmt.Errorf("energy: negative power or transition cost: %+v", p)
	}
	if p.SleepW > p.IdleW {
		return fmt.Errorf("energy: sleep draw %v exceeds idle draw %v", p.SleepW, p.IdleW)
	}
	return nil
}

// Power returns the draw in watts for the given state.
func (p Params) Power(s State) float64 {
	switch s {
	case Tx:
		return p.TxW
	case Rx:
		return p.RxW
	case Idle:
		return p.IdleW
	case Sleep:
		return p.SleepW
	default: // Off
		return 0
	}
}

// Meter accumulates the energy consumed by one radio as it moves through
// power states over virtual time. It is the per-node energy ledger behind
// the paper's Figure 9(b).
type Meter struct {
	params Params

	state  State
	lastAt sim.Time

	// durations is the time spent per state, indexed by State (only the
	// Off..Tx constants are valid); accrued has bit s set once state s has
	// been charged, even for zero time: the states Breakdown lists.
	durations   [Tx + 1]sim.Time
	accrued     uint8
	joules      float64
	transitions int
	// sleepTransitions counts the charged transitions between Sleep and an
	// awake state: the ones a radio that never slept would not pay.
	sleepTransitions int
}

// NewMeter returns a meter whose radio starts in the given state at time
// start.
func NewMeter(params Params, start sim.Time, initial State) *Meter {
	m := new(Meter)
	m.Init(params, start, initial)
	return m
}

// Init rewinds m to the meter NewMeter returns, in place.
func (m *Meter) Init(params Params, start sim.Time, initial State) {
	*m = Meter{
		params: params,
		state:  initial,
		lastAt: start,
	}
}

// State returns the current radio state.
func (m *Meter) State() State { return m.state }

// SetState accrues energy for the interval spent in the current state and
// switches to next. Transitions into or out of Sleep/Off pay the card
// transition cost. Setting the same state is a no-op (no transition cost).
func (m *Meter) SetState(now sim.Time, next State) {
	if next == m.state {
		m.accrue(now)
		return
	}
	m.accrue(now)
	if m.state == Sleep || m.state == Off || next == Sleep || next == Off {
		m.joules += m.params.TransitionJ
		m.transitions++
		if m.state != Off && next != Off {
			m.sleepTransitions++
		}
	}
	m.state = next
}

// accrue charges the elapsed time against the current state.
func (m *Meter) accrue(now sim.Time) {
	if now < m.lastAt {
		panic(fmt.Sprintf("energy: time went backwards: %v < %v", now, m.lastAt))
	}
	dt := now - m.lastAt
	m.durations[m.state] += dt
	m.accrued |= 1 << m.state
	m.joules += dt * m.params.Power(m.state)
	m.lastAt = now
}

// Flush accrues energy up to now without changing state. Call before
// reading totals.
func (m *Meter) Flush(now sim.Time) { m.accrue(now) }

// TotalJ returns the total energy consumed so far, in joules.
func (m *Meter) TotalJ() float64 { return m.joules }

// Duration returns the time spent in the given state so far.
func (m *Meter) Duration(s State) sim.Time { return m.durations[s] }

// Transitions returns the number of charged power transitions.
func (m *Meter) Transitions() int { return m.transitions }

// CounterfactualNoSleepJ returns the energy this radio would have consumed
// if every sleep interval had instead been spent idle and no sleep
// transitions had been paid. This is exactly the paper's "CoCoA without
// coordination" baseline in Figure 9(b), computed from the same run.
// Powering the card off or on is charged in both worlds: a radio that
// never slept pays it too, from Idle instead of Sleep.
func (m *Meter) CounterfactualNoSleepJ() float64 {
	sleepT := m.durations[Sleep]
	return m.joules +
		sleepT*(m.params.IdleW-m.params.SleepW) -
		float64(m.sleepTransitions)*m.params.TransitionJ
}

// Breakdown returns a copy of the per-state duration table: every state
// the meter has charged, even for zero time.
func (m *Meter) Breakdown() map[State]sim.Time {
	out := make(map[State]sim.Time, len(m.durations))
	for s := Off; s <= Tx; s++ {
		if m.accrued&(1<<s) != 0 {
			out[s] = m.durations[s]
		}
	}
	return out
}
