package mobility

import (
	"math"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// sameBits reports whether a and b are equal to the last bit.
func sameBits(a, b geom.Vec2) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// legConfig decodes a movement configuration from two bytes: vmax from
// 0.1 to 15.85 m/s, a square arena of 20 to 200 m (small ones turn legs
// over quickly), and a rest range that is zero for a quarter of the values.
func legConfig(speed, rest uint8) Config {
	cfg := DefaultConfig(0.1 + float64(speed%64)/4)
	cfg.Area = geom.Square(20 + float64(speed>>6)*60)
	if rest%4 != 0 {
		cfg.RestMin = float64(rest>>2) / 8
		cfg.RestMax = cfg.RestMin + float64(rest%4)
	}
	return cfg
}

// checkLegs drives w through the query schedule ops encodes and checks the
// Motion contract at every step: the leg read at t0 reproduces Position(t)
// bit for bit for t in [t0, Until), and Until is exactly where the robot
// moves on — its arrival, or the end of its rest or hold. Each op byte b
// either holds the robot (b%8 == 0, for (b>>3)/4 seconds; zero is a no-op)
// or reads the leg and probes b%8-1 evenly spaced instants inside it, then
// (by (b>>3)%4) stays put, steps to the leg's last instant, steps to its
// end, or skips past it.
func checkLegs(t *testing.T, w *Waypoint, ops []byte) {
	t.Helper()
	now := 0.0
	for step, b := range ops {
		if b%8 == 0 {
			w.HoldUntil(now, now+float64(b>>3)/4)
			continue
		}
		p, leg := w.Motion(now)
		if !sameBits(p, leg.At(now)) {
			t.Fatalf("step %d: Motion(%v) = %v but its leg gives %v", step, now, p, leg.At(now))
		}
		if leg.From > now || leg.Until < now {
			t.Fatalf("step %d: leg [%v, %v) read at %v does not cover it", step, leg.From, leg.Until, now)
		}
		t0, k := now, int(b%8)
		for i := 1; i < k; i++ {
			at := t0 + (leg.Until-t0)*float64(i)/float64(k)
			if at >= leg.Until || at < now {
				break
			}
			if got := w.Position(at); !sameBits(got, leg.At(at)) {
				t.Fatalf("step %d: Position(%v) = %v, leg read at %v gives %v", step, at, got, t0, leg.At(at))
			}
			now = at
		}
		switch (b >> 3) % 4 {
		case 1: // the leg's last representable instant is still on it
			if at := math.Nextafter(leg.Until, math.Inf(-1)); at >= now {
				if got := w.Position(at); !sameBits(got, leg.At(at)) {
					t.Fatalf("step %d: Position(%v) = %v just before the leg ends, leg gives %v", step, at, got, leg.At(at))
				}
				now = at
			}
		case 2: // at Until the robot arrives, starts resting, or moves on
			if leg.Until > now {
				legs, resting := w.Legs(), w.resting
				w.Position(leg.Until)
				if w.Legs() == legs && w.resting == resting {
					t.Fatalf("step %d: nothing happened at the leg's end %v", step, leg.Until)
				}
				now = leg.Until
			}
		case 3: // skip past the leg, across any number of later ones
			now = math.Max(now, leg.Until) + float64(b>>5)*3
		}
	}
}

// TestMotionLegProperty checks the Motion contract over random movement
// configurations (with and without rests) and random query schedules
// mixing mid-leg probes, leg ends, long skips, and holds.
func TestMotionLegProperty(t *testing.T) {
	rng := sim.NewRNG(17).Stream("legs")
	for c := 0; c < 300; c++ {
		speed, rest := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		ops := make([]byte, 40)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		w, err := NewWaypoint(legConfig(speed, rest), sim.NewRNG(int64(c)).Stream("mob"))
		if err != nil {
			t.Fatal(err)
		}
		checkLegs(t, w, ops)
	}
}

// FuzzWaypointLeg is TestMotionLegProperty with fuzzer-chosen
// configurations and schedules.
func FuzzWaypointLeg(f *testing.F) {
	// Seeds: a slow robot probed mid-leg; a fast one in a small arena with
	// rests, stepping to each leg's end; holds of moving and resting
	// robots; long skips across many legs.
	f.Add(int64(1), uint8(8), uint8(0), []byte{3, 7, 5, 7, 2})
	f.Add(int64(2), uint8(63), uint8(9), []byte{23, 23, 17, 23, 23, 17, 23, 23})
	f.Add(int64(3), uint8(200), uint8(14), []byte{7, 40, 7, 23, 88, 23, 16, 23, 0, 23})
	f.Add(int64(4), uint8(129), uint8(6), []byte{31, 255, 31, 127, 15, 23})
	f.Fuzz(func(t *testing.T, seed int64, speed, rest uint8, ops []byte) {
		w, err := NewWaypoint(legConfig(speed, rest), sim.NewRNG(seed).Stream("mob"))
		if err != nil {
			t.Fatal(err)
		}
		checkLegs(t, w, ops)
	})
}
