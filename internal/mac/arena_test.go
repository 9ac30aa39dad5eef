package mac

import (
	"testing"

	"cocoa/internal/geom"
)

// An arena hands out fresh entries while frames holding earlier ones are
// queued, and starts over once the medium has been idle — also when the
// medium is busy again, with frames of its own, by the next Next. A
// re-initialised medium counts as idle.
func TestArenaReusesOnceMediumIdled(t *testing.T) {
	s, m := newTestMedium(t, 1)
	m.Attach(0, &fakeEndpoint{pos: geom.Vec2{}, listening: true})
	var a Arena[int]
	first := a.Next(m)
	if err := m.Send(0, Frame{Payload: first}); err != nil {
		t.Fatal(err)
	}
	if a.Next(m) == first {
		t.Fatal("an entry of a queued frame was handed out again")
	}
	s.Run()
	if !m.Idle() {
		t.Fatal("medium not idle after the run")
	}
	if err := m.Send(0, Frame{}); err != nil { // busy again, not through a
		t.Fatal(err)
	}
	if a.Next(m) != first {
		t.Error("the medium idled, but the arena did not start over")
	}
	s.Reset()
	if err := m.Init(s, m.Config(), m.rng); err != nil {
		t.Fatal(err)
	}
	m.Attach(0, &fakeEndpoint{pos: geom.Vec2{}, listening: true})
	if err := m.Send(0, Frame{}); err != nil {
		t.Fatal(err)
	}
	if a.Next(m) != first {
		t.Error("the medium was re-initialised, but the arena did not start over")
	}
	if len(a.chunks) != 1 {
		t.Errorf("arena holds %d chunks, want 1", len(a.chunks))
	}
}
