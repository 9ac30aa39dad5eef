package energy

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cocoa/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's headline numbers: idle 900 mW, sleep 50 mW.
	if p.IdleW != 0.9 {
		t.Errorf("IdleW = %v, want 0.9", p.IdleW)
	}
	if p.SleepW != 0.05 {
		t.Errorf("SleepW = %v, want 0.05", p.SleepW)
	}
	if p.TxW <= p.RxW || p.RxW < p.IdleW {
		t.Errorf("want TxW > RxW >= IdleW, got %+v", p)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{"negative tx", Params{TxW: -1}},
		{"sleep above idle", Params{SleepW: 1, IdleW: 0.5}},
		{"negative transition", Params{TransitionJ: -0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Error("accepted invalid params")
			}
		})
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Off, "off"}, {Sleep, "sleep"}, {Idle, "idle"}, {Rx, "rx"}, {Tx, "tx"},
		{State(99), "State(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestPower(t *testing.T) {
	p := DefaultParams()
	if got := p.Power(Off); got != 0 {
		t.Errorf("Power(Off) = %v", got)
	}
	if got := p.Power(Tx); got != p.TxW {
		t.Errorf("Power(Tx) = %v", got)
	}
	if got := p.Power(Sleep); got != p.SleepW {
		t.Errorf("Power(Sleep) = %v", got)
	}
}

func TestMeterAccrual(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 0, Idle)
	m.SetState(10, Tx)   // 10 s idle
	m.SetState(10.5, Rx) // 0.5 s tx
	m.SetState(12, Idle) // 1.5 s rx
	m.Flush(20)          // 8 s idle

	want := 10*p.IdleW + 0.5*p.TxW + 1.5*p.RxW + 8*p.IdleW
	if got := m.TotalJ(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalJ = %v, want %v", got, want)
	}
	if got := m.Duration(Idle); got != 18 {
		t.Errorf("idle duration = %v, want 18", got)
	}
	if got := m.Transitions(); got != 0 {
		t.Errorf("transitions = %d, want 0 (no sleep involved)", got)
	}
}

func TestMeterSleepTransitionCost(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 0, Idle)
	m.SetState(1, Sleep) // pays transition
	m.SetState(5, Idle)  // pays transition
	m.Flush(6)

	want := 1*p.IdleW + 4*p.SleepW + 1*p.IdleW + 2*p.TransitionJ
	if got := m.TotalJ(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalJ = %v, want %v", got, want)
	}
	if got := m.Transitions(); got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
}

func TestSetSameStateNoTransition(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 0, Sleep)
	m.SetState(5, Sleep)
	if got := m.Transitions(); got != 0 {
		t.Errorf("transitions = %d, want 0", got)
	}
	if got := m.TotalJ(); math.Abs(got-5*p.SleepW) > 1e-12 {
		t.Errorf("TotalJ = %v", got)
	}
}

func TestTimeBackwardsPanics(t *testing.T) {
	m := NewMeter(DefaultParams(), 10, Idle)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time reversal")
		}
	}()
	m.Flush(5)
}

// The paper: without coordination, radios idle instead of sleeping, costing
// 2.6x-8x more. The counterfactual must equal a meter that idled through
// the same schedule.
func TestCounterfactualNoSleep(t *testing.T) {
	p := DefaultParams()
	coord := NewMeter(p, 0, Idle)
	uncoord := NewMeter(p, 0, Idle)

	// 100 s schedule: 3 s awake window then 97 s sleep (coordinated) or
	// idle (uncoordinated), repeated 10 times.
	now := 0.0
	for i := 0; i < 10; i++ {
		coord.SetState(now+3, Sleep)
		uncoord.SetState(now+3, Idle)
		now += 100
		coord.SetState(now, Idle)
		uncoord.SetState(now, Idle)
	}
	coord.Flush(now)
	uncoord.Flush(now)

	if got, want := coord.CounterfactualNoSleepJ(), uncoord.TotalJ(); math.Abs(got-want) > 1e-9 {
		t.Errorf("counterfactual = %v, want %v", got, want)
	}
	ratio := uncoord.TotalJ() / coord.TotalJ()
	if ratio < 2.6 || ratio > 12 {
		t.Errorf("savings ratio = %.2f, want within the paper's 2.6x-8x band "+
			"(loosely) for a T=100 schedule", ratio)
	}
}

// Powering the card off and on is paid with or without coordination, so
// the counterfactual re-prices only the sleep: a radio that crashes while
// asleep and recovers must still match one that idled through the same
// schedule, and a radio that never sleeps is its own counterfactual.
func TestCounterfactualKeepsPowerTransitions(t *testing.T) {
	p := DefaultParams()
	coord := NewMeter(p, 0, Idle)
	uncoord := NewMeter(p, 0, Idle)
	coord.SetState(3, Sleep)
	coord.SetState(50, Off) // crash while asleep
	uncoord.SetState(50, Off)
	coord.SetState(70, Idle) // recovery
	uncoord.SetState(70, Idle)
	coord.SetState(73, Sleep)
	coord.SetState(100, Idle)
	coord.Flush(120)
	uncoord.Flush(120)
	if got, want := coord.CounterfactualNoSleepJ(), uncoord.TotalJ(); math.Abs(got-want) > 1e-9 {
		t.Errorf("counterfactual = %v, want %v", got, want)
	}

	off := NewMeter(p, 0, Idle)
	off.SetState(0, Off)
	off.Flush(120)
	if got, want := off.CounterfactualNoSleepJ(), off.TotalJ(); got != want || want != p.TransitionJ {
		t.Errorf("powered-off radio: counterfactual = %v, total = %v, want both %v", got, want, p.TransitionJ)
	}
}

func TestBreakdownIsCopy(t *testing.T) {
	m := NewMeter(DefaultParams(), 0, Idle)
	m.SetState(2, Sleep)
	b := m.Breakdown()
	b[Idle] = 999
	if got := m.Duration(Idle); got != 2 {
		t.Errorf("mutating Breakdown() affected meter: %v", got)
	}
}

// Breakdown lists exactly the states the meter has charged, a zero-time
// charge included.
func TestBreakdownListsChargedStates(t *testing.T) {
	m := NewMeter(DefaultParams(), 0, Idle)
	m.SetState(0, Sleep) // charges Idle for zero time
	m.Flush(5)
	if got, want := m.Breakdown(), map[State]sim.Time{Idle: 0, Sleep: 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Breakdown = %v, want %v", got, want)
	}
}

// Property: total energy is non-negative and monotonically non-decreasing
// under any sequence of state changes.
func TestEnergyMonotoneProperty(t *testing.T) {
	p := DefaultParams()
	states := []State{Off, Sleep, Idle, Rx, Tx}
	f := func(steps []uint8) bool {
		m := NewMeter(p, 0, Idle)
		now := 0.0
		prev := 0.0
		for _, s := range steps {
			now += float64(s%50) / 10
			m.SetState(now, states[int(s)%len(states)])
			if m.TotalJ() < prev-1e-12 {
				return false
			}
			prev = m.TotalJ()
		}
		return m.TotalJ() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy equals sum over states of duration x power plus
// transition costs (conservation).
func TestEnergyConservationProperty(t *testing.T) {
	p := DefaultParams()
	states := []State{Off, Sleep, Idle, Rx, Tx}
	f := func(steps []uint8) bool {
		m := NewMeter(p, 0, Idle)
		now := 0.0
		for _, s := range steps {
			now += float64(s%30) / 7
			m.SetState(now, states[int(s)%len(states)])
		}
		m.Flush(now + 1)
		var want float64
		for st, d := range m.Breakdown() {
			want += d * p.Power(st)
		}
		want += float64(m.Transitions()) * p.TransitionJ
		return math.Abs(want-m.TotalJ()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
