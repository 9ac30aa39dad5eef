package mac

// arenaChunk is how many payloads an Arena chunk holds.
const arenaChunk = 256

// Arena holds the payloads of frames a medium carries. A sender fills an
// entry and passes its pointer as Frame.Payload, so sending boxes no value
// into the frame (an allocation per frame); receivers copy the entry before
// Deliver returns. Next reuses the entries from the first one whenever the
// medium is Idle, or has been since the previous Next: every frame sent
// before then is finished, so none references an entry. Chunks never move,
// so an arena holds the most payloads on the air between two idle moments,
// and one arena may serve every sender on a medium. The zero value is ready
// to use.
type Arena[T any] struct {
	chunks []*[arenaChunk]T
	used   int
	// idles is the medium's idle count at the previous Next.
	idles uint64
}

// Next returns an unused entry for a frame about to be sent on m. The entry
// keeps whatever an earlier frame left in it; the caller overwrites it.
func (a *Arena[T]) Next(m *Medium) *T {
	if m.Idle() || m.idles != a.idles {
		a.used, a.idles = 0, m.idles
	}
	c := a.used / arenaChunk
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, new([arenaChunk]T))
	}
	p := &a.chunks[c][a.used%arenaChunk]
	a.used++
	return p
}
