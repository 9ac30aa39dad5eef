package mac

import (
	"math"
	"sort"
	"testing"

	"cocoa/internal/geom"
)

// refCoord is the test oracle's independent copy of the cell-coordinate
// mapping (floor at the cell side, clamped so the conversion is defined).
func refCoord(v, cellM float64) int64 {
	c := math.Floor(v / cellM)
	if !(c >= -maxCellCoord) {
		return -maxCellCoord
	}
	if c > maxCellCoord {
		return maxCellCoord
	}
	return int64(c)
}

// FuzzGridIndex churns a medium's grid index with attaches (fresh and
// replacing), bounded and unbounded moves, detaches, and queries, all
// through the Medium API so that rank renumbering is exercised too. Every
// query is cross-checked against the O(n) reference: scan all stations,
// keep those whose indexed cell lies in the 3x3 neighborhood, sort
// ascending by ID. The index must return exactly that set in exactly that
// order — the property the MAC's byte-for-byte equivalence rests on.
func FuzzGridIndex(f *testing.F) {
	// Seeds: plain churn, cell-boundary walking, negative coordinates,
	// and clamp-range extremes.
	f.Add([]byte{0, 1, 10, 10, 3, 1, 0, 0})
	f.Add([]byte{0, 1, 255, 255, 0, 2, 1, 1, 1, 2, 128, 0, 3, 0, 255, 255})
	f.Add([]byte{0, 5, 0, 0, 1, 5, 0, 1, 1, 5, 1, 0, 3, 5, 0, 0, 2, 5, 0, 0, 3, 5, 0, 0})
	f.Add([]byte{0, 9, 254, 254, 0, 8, 2, 2, 3, 9, 254, 254, 3, 8, 2, 2})
	// Detaching the lowest ID of one shared bucket renumbers the others'
	// ranks and swap-moves the bucket's last entry into the vacated slot.
	f.Add([]byte{0, 1, 100, 100, 0, 2, 100, 100, 0, 3, 100, 100, 2, 1, 0, 0, 3, 0, 100, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		const cellM = 50.0
		_, m := newTestMedium(t, 1)
		m.grid = newGridIndex(cellM) // the fixed cell side the oracle mirrors

		// Shadow model: id -> the position the station was last indexed at.
		type shadow struct {
			st  *station
			pos geom.Vec2
		}
		live := map[int]*shadow{}

		// decode maps two bytes to a coordinate. 255 selects an extreme
		// value beyond the clamp range; 254 a far negative one; everything
		// else spans a few dozen cells around the origin, densely enough
		// that boundary crossings and shared buckets both happen.
		decode := func(b byte) float64 {
			switch b {
			case 255:
				return 1e300
			case 254:
				return -1e300
			default:
				return (float64(b) - 100) * cellM / 7
			}
		}

		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 4
			id := int(data[i+1] % 32)
			p := geom.Vec2{X: decode(data[i+2]), Y: decode(data[i+3])}
			switch op {
			case 0: // attach; a live id is replaced by a new endpoint
				m.Attach(id, &fakeEndpoint{pos: p, listening: true})
				live[id] = &shadow{st: m.stations[id], pos: p}
			case 1: // move + re-bucket
				sh, ok := live[id]
				if !ok {
					continue
				}
				sh.st.ep.(*fakeEndpoint).pos = p
				m.UpdatePosition(id)
				sh.pos = p
			case 2: // detach
				m.Detach(id)
				delete(live, id)
			case 3: // query: differential check against the O(n) scan
				// Pruning disabled (+Inf): this oracle checks the pure
				// 3x3-neighborhood set; the pruned variant is covered by
				// TestCollectPrunesByIndexedPosition and the scenario
				// byte-equivalence suite.
				got := m.grid.collect(p, math.Inf(1), m.ordered)
				kx, ky := refCoord(p.X, cellM), refCoord(p.Y, cellM)
				var want []int
				for wid, sh := range live {
					sx, sy := refCoord(sh.pos.X, cellM), refCoord(sh.pos.Y, cellM)
					dx, dy := sx-kx, sy-ky
					if dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1 {
						want = append(want, wid)
					}
				}
				sort.Ints(want)
				if len(got) != len(want) {
					t.Fatalf("query %v: got %d candidates, want %d", p, len(got), len(want))
				}
				for j, st := range got {
					if st.id != want[j] {
						t.Fatalf("query %v: candidate %d is id %d, want %d (order or set mismatch)",
							p, j, st.id, want[j])
					}
				}
				for w, word := range m.grid.marks {
					if word != 0 {
						t.Fatalf("query %v left rank bitset word %d set: %#x", p, w, word)
					}
				}
			}
		}

		// Structural invariant after the churn: the ordered list holds
		// exactly the live stations in ascending ID, each station's rank is
		// its index there, and every live station is bucketed exactly once,
		// under the key of its last indexed position, in the slot it
		// records, with its current rank.
		if len(m.ordered) != len(live) {
			t.Fatalf("%d stations ordered, %d live", len(m.ordered), len(live))
		}
		for i, st := range m.ordered {
			if sh := live[st.id]; sh == nil || sh.st != st {
				t.Fatalf("ordered[%d] is station %d, not the live one", i, st.id)
			}
			if st.rank != i {
				t.Fatalf("station %d at ordered[%d] has rank %d", st.id, i, st.rank)
			}
			if i > 0 && m.ordered[i-1].id >= st.id {
				t.Fatalf("ordered not ascending at %d: %d then %d", i, m.ordered[i-1].id, st.id)
			}
		}
		seen := map[int]int{}
		m.grid.cells.forEach(func(key gridKey, b []cellEntry) {
			for slot, e := range b {
				st := e.st
				seen[st.id]++
				if sh := live[st.id]; sh == nil || sh.st != st {
					t.Fatalf("bucketed station %d is detached or replaced", st.id)
				}
				if !st.gridded || st.key != key {
					t.Fatalf("station %d bucketed under %v but keyed %v (gridded %v)", st.id, key, st.key, st.gridded)
				}
				if st.slot != slot {
					t.Fatalf("station %d sits in slot %d but records slot %d", st.id, slot, st.slot)
				}
				if e.rank != st.rank || m.ordered[e.rank] != st {
					t.Fatalf("station %d entry rank %d, station rank %d", st.id, e.rank, st.rank)
				}
				if e.ipos != live[st.id].pos {
					t.Fatalf("station %d entry position %v, last indexed at %v", st.id, e.ipos, live[st.id].pos)
				}
			}
		})
		for id, sh := range live {
			wantKey := gridKey{refCoord(sh.pos.X, cellM), refCoord(sh.pos.Y, cellM)}
			if seen[id] != 1 {
				t.Fatalf("station %d bucketed %d times", id, seen[id])
			}
			if sh.st.key != wantKey {
				t.Fatalf("station %d keyed %v, want %v", id, sh.st.key, wantKey)
			}
		}
		if len(seen) != len(live) {
			t.Fatalf("%d stations bucketed, %d live", len(seen), len(live))
		}
	})
}
