package scenario

import (
	"math"
	"testing"

	"cocoa/internal/cocoa"
)

// sleepLedger rebuilds each robot's sleep time and sleep transitions from
// a run's event stream, independently of the energy meters: a sleep event
// puts an awake radio to sleep, a wake event (or the window start that
// wakes a punctual robot at the same instant) brings it back, and a crash
// or failure powers it off, which ends a sleep interval without a sleep
// transition.
type sleepLedger struct {
	sleepT []float64
	n      []int
	asleep []bool
	since  []float64
	endS   float64
}

func newSleepLedger(cfg cocoa.Config) *sleepLedger {
	return &sleepLedger{
		sleepT: make([]float64, cfg.NumRobots),
		n:      make([]int, cfg.NumRobots),
		asleep: make([]bool, cfg.NumRobots),
		since:  make([]float64, cfg.NumRobots),
		endS:   float64(cfg.DurationS),
	}
}

func (l *sleepLedger) observe(e cocoa.Event) {
	r := e.Robot
	switch e.Kind {
	case cocoa.EventSleep:
		if !l.asleep[r] {
			l.asleep[r], l.since[r] = true, e.TimeS
			l.n[r]++
		}
	case cocoa.EventWake:
		if l.asleep[r] {
			l.sleepT[r] += e.TimeS - l.since[r]
			l.asleep[r] = false
			l.n[r]++
		}
	case cocoa.EventCrash, cocoa.EventFailure:
		if l.asleep[r] {
			l.sleepT[r] += e.TimeS - l.since[r]
			l.asleep[r] = false
		}
	}
}

// close ends the intervals still open when the run stops.
func (l *sleepLedger) close() {
	for r, asleep := range l.asleep {
		if asleep {
			l.sleepT[r] += l.endS - l.since[r]
			l.asleep[r] = false
		}
	}
}

// Figure 9(b)'s "without coordination" energy is the run's energy with
// every sleep interval re-priced at idle power and no sleep transition
// paid: Σ_r E_r + sleepT_r·(idle−sleep) − n_r·TransitionJ. Rebuilt from
// the events, it must match the meters to the bit in every golden family,
// and the savings ratio must be exactly 1 without sleep and otherwise
// above or below 1 as the re-priced sleep outweighs the transitions or
// not.
func TestNoSleepEnergyFromEvents(t *testing.T) {
	for name, cfg := range QuickFamilies() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ledger := newSleepLedger(cfg)
			cfg.Observer = ledger.observe
			res, err := cocoa.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ledger.close()

			p := cfg.Energy
			var want, margin float64
			slept := 0
			for r, e := range res.PerRobotEnergyJ {
				want += e + ledger.sleepT[r]*(p.IdleW-p.SleepW) - float64(ledger.n[r])*p.TransitionJ
				margin += ledger.sleepT[r]*(p.IdleW-p.SleepW) - float64(ledger.n[r])*p.TransitionJ
				slept += ledger.n[r]
			}
			if coordinated := cfg.Mode != cocoa.ModeOdometryOnly && cfg.Coordinated; coordinated != (slept > 0) {
				t.Errorf("%d sleep transitions in a run with coordinated sleep %v", slept, coordinated)
			}
			if res.NoSleepEnergyJ != want {
				t.Errorf("NoSleepEnergyJ = %v, want %v from the sleep/wake events", res.NoSleepEnergyJ, want)
			}
			savings := res.EnergySavings()
			if margin == 0 && savings != 1 {
				t.Errorf("no sleep, yet EnergySavings = %v, want 1", savings)
			}
			if margin != 0 && math.Signbit(savings-1) != math.Signbit(margin) {
				t.Errorf("EnergySavings = %v, but sleep re-priced at idle less sleep transitions = %v J", savings, margin)
			}
		})
	}
}
