package mac

import (
	"math"
	"math/bits"

	"cocoa/internal/geom"
)

// This file implements the medium's optional spatial neighbor index: a
// uniform grid over station positions (and over in-flight transmission
// origins) that lets transmit and carrierBusy visit only the stations that
// can possibly matter, instead of every attached station.
//
// Correctness contract (the reason the index can be byte-identical to the
// O(n) scan, see DESIGN.md §12):
//
//   - The cell side is max(senseFar, plausFar) + Config.IndexSlackM, where
//     senseFar/plausFar are the rssiGate far brackets. Any two points
//     in non-adjacent cells are at least one full cell side apart, so every
//     station outside the 3x3 neighborhood of a transmitter is — even after
//     drifting up to IndexSlackM from its indexed position — beyond
//     plausFar, exactly the population the scan path bulk-skips without
//     drawing noise. The candidates inside the 3x3 neighborhood are a
//     superset of all stations the scan would actually sample.
//   - Candidates are visited in ascending station ID, the same order the
//     scan uses, so the per-receiver draws from the MAC RNG stream land on
//     the same receivers in the same order. Buckets are unordered; each
//     entry carries its station's rank in Medium.ordered (the ID-sorted
//     station list), and collect sets one bit per surviving rank and reads
//     the bitset back in rank order, which is ascending ID.
//   - collect pre-prunes candidates whose indexed position proves them
//     beyond plausFar even after the maximal IndexSlackM drift. A pruned
//     station would take beginReception's distance-gate branch, which
//     draws no randomness, so folding it into transmit's bulk BelowSense
//     skip changes neither the RNG stream nor any non-volatile counter.
//   - carrierBusy needs only transmissions whose mean signal can reach
//     sensitivity (distance < senseFar <= cell side); transmissions are
//     bucketed by their frozen origin, so the same 3x3 query is complete.
//     The station's own in-flight transmissions are tracked separately
//     (station.own) because the scan reports them busy at any distance.

// gridKey addresses one cell of the uniform spatial grid.
type gridKey struct{ x, y int64 }

// maxCellCoord clamps cell coordinates so float->int conversion is always
// defined. Positions this far out (≥ 2^40 cell sides) collapse onto the
// boundary cell; merging cells only ever widens a 3x3 candidate set, so the
// superset property survives the clamp.
const maxCellCoord = 1 << 40

// denseSpanCap bounds each axis of a bucketGrid's dense window. A bounded
// deployment arena spans a few dozen cells, so the window comfortably holds
// every real position; adversarial coordinates (fuzzing, the clamp above)
// fall through to the overflow map instead of growing the array.
const denseSpanCap = 256

// bucketGrid stores per-cell buckets with two tiers: a dense row-major
// window covering the cells actually observed (grown on demand, the hot
// path is a bounds check plus an array load), and an overflow hash map for
// cells outside a cap-bounded window. Transmit-path queries probe 9 cells
// per frame, so avoiding a hash per probe is what makes the index cheap.
type bucketGrid[T any] struct {
	haveWin    bool
	minX, minY int64
	w, h       int64
	dense      [][]T
	overflow   map[gridKey][]T
}

// get returns the bucket for k (nil when empty).
func (bg *bucketGrid[T]) get(k gridKey) []T {
	x, y := k.x-bg.minX, k.y-bg.minY
	if bg.haveWin && x >= 0 && x < bg.w && y >= 0 && y < bg.h {
		return bg.dense[y*bg.w+x]
	}
	if bg.overflow == nil {
		return nil
	}
	return bg.overflow[k]
}

// put replaces the bucket for k, growing the dense window to include k when
// the resulting span stays within denseSpanCap per axis.
func (bg *bucketGrid[T]) put(k gridKey, b []T) {
	x, y := k.x-bg.minX, k.y-bg.minY
	if bg.haveWin && x >= 0 && x < bg.w && y >= 0 && y < bg.h {
		bg.dense[y*bg.w+x] = b
		return
	}
	if len(b) == 0 {
		// Clearing a cell that was never dense: it can only live in the
		// overflow map.
		if bg.overflow != nil {
			delete(bg.overflow, k)
		}
		return
	}
	if bg.grow(k) {
		bg.dense[(k.y-bg.minY)*bg.w+(k.x-bg.minX)] = b
		return
	}
	if bg.overflow == nil {
		bg.overflow = make(map[gridKey][]T)
	}
	bg.overflow[k] = b
}

// clear empties every bucket, keeping the dense window and each dense
// bucket's capacity.
func (bg *bucketGrid[T]) clear() {
	for i, b := range bg.dense {
		clear(b)
		bg.dense[i] = b[:0]
	}
	clear(bg.overflow)
}

// forEach calls fn for every non-empty bucket, dense window first.
func (bg *bucketGrid[T]) forEach(fn func(gridKey, []T)) {
	for i, b := range bg.dense {
		if len(b) > 0 {
			fn(gridKey{bg.minX + int64(i)%bg.w, bg.minY + int64(i)/bg.w}, b)
		}
	}
	for k, b := range bg.overflow {
		if len(b) > 0 {
			fn(k, b)
		}
	}
}

// grow widens the dense window to include k, reporting whether it could.
// Growth copies bucket headers only and adds a margin on the growing side,
// so stations drifting across the arena trigger O(1) amortized copies.
func (bg *bucketGrid[T]) grow(k gridKey) bool {
	const margin = 4
	minX, minY, maxX, maxY := k.x, k.y, k.x, k.y
	if bg.haveWin {
		minX = min(minX, bg.minX)
		minY = min(minY, bg.minY)
		maxX = max(maxX, bg.minX+bg.w-1)
		maxY = max(maxY, bg.minY+bg.h-1)
	}
	if k.x < bg.minX || !bg.haveWin {
		minX -= margin
	}
	if k.y < bg.minY || !bg.haveWin {
		minY -= margin
	}
	if !bg.haveWin || k.x >= bg.minX+bg.w {
		maxX += margin
	}
	if !bg.haveWin || k.y >= bg.minY+bg.h {
		maxY += margin
	}
	w, h := maxX-minX+1, maxY-minY+1
	if w > denseSpanCap || h > denseSpanCap {
		return false
	}
	dense := make([][]T, w*h)
	if bg.haveWin {
		for y := int64(0); y < bg.h; y++ {
			copy(dense[(y+bg.minY-minY)*w+(bg.minX-minX):], bg.dense[y*bg.w:(y+1)*bg.w])
		}
	}
	bg.haveWin, bg.minX, bg.minY, bg.w, bg.h, bg.dense = true, minX, minY, w, h, dense
	// Newly covered cells may already have overflow buckets: migrate them.
	for ok, ob := range bg.overflow {
		x, y := ok.x-minX, ok.y-minY
		if x >= 0 && x < w && y >= 0 && y < h {
			dense[y*w+x] = ob
			delete(bg.overflow, ok)
		}
	}
	return true
}

// cellEntry is one bucketed station. The indexed position and the
// station's rank in Medium.ordered are stored inline, so collect's distance
// filter and its bitset marking stream contiguous 32-byte records instead
// of dereferencing scattered station structs — at swarm scale the
// per-candidate cache miss, not the compare, was the dominant cost.
type cellEntry struct {
	ipos geom.Vec2
	rank int
	st   *station
}

// gridIndex is the uniform spatial index over stations and in-flight
// transmissions. Station buckets are unordered: each bucketed station
// records its slot in its bucket (O(1) swap-remove and in-place position
// refresh), and collect restores ascending-ID order through the rank
// bitset.
type gridIndex struct {
	cellM float64 // cell side length in meters
	inv   float64 // 1 / cellM
	// cells buckets attached stations by their last indexed position;
	// txCells buckets in-flight transmissions by their frozen origin.
	cells   bucketGrid[cellEntry]
	txCells bucketGrid[*transmission]
	cand    []*station // scratch: collect's output
	// marks is collect's rank bitset, one bit per attached station. It is
	// all zero between calls and grows only when the medium does.
	marks []uint64
}

func newGridIndex(cellM float64) *gridIndex {
	g := new(gridIndex)
	g.setCell(cellM)
	return g
}

// setCell sets the cell side of an empty index.
func (g *gridIndex) setCell(cellM float64) {
	g.cellM, g.inv = cellM, 1/cellM
}

// clear empties the index of every station and transmission, keeping its
// buckets' memory for the next medium configuration. Buckets are keyed by
// cell coordinates only, so a later setCell may change the cell side.
func (g *gridIndex) clear() {
	g.cells.clear()
	g.txCells.clear()
	clear(g.cand)
	g.cand = g.cand[:0]
}

// coord maps one coordinate to its cell index, clamped to the defined range.
func (g *gridIndex) coord(v float64) int64 {
	c := math.Floor(v * g.inv)
	if !(c >= -maxCellCoord) { // also catches NaN
		return -maxCellCoord
	}
	if c > maxCellCoord {
		return maxCellCoord
	}
	return int64(c)
}

func (g *gridIndex) keyOf(p geom.Vec2) gridKey {
	return gridKey{g.coord(p.X), g.coord(p.Y)}
}

// insert buckets st at its current position p under its current rank.
func (g *gridIndex) insert(st *station, p geom.Vec2) {
	g.place(st, g.keyOf(p), p)
}

// place appends st's entry, indexed at p, to the bucket of key, p's cell.
func (g *gridIndex) place(st *station, key gridKey, p geom.Vec2) {
	st.key = key
	st.gridded = true
	b := g.cells.get(st.key)
	st.slot = len(b)
	g.cells.put(st.key, append(b, cellEntry{ipos: p, rank: st.rank, st: st}))
}

// remove unbuckets st by moving its bucket's last entry into its slot; a
// station not in the grid is left alone.
func (g *gridIndex) remove(st *station) {
	if !st.gridded {
		return
	}
	st.gridded = false
	b := g.cells.get(st.key)
	last := len(b) - 1
	if st.slot != last {
		b[st.slot] = b[last]
		b[st.slot].st.slot = st.slot
	}
	b[last] = cellEntry{}
	g.cells.put(st.key, b[:last])
}

// setRank copies st's rank into its bucket entry after Medium.ordered was
// renumbered.
func (g *gridIndex) setRank(st *station) {
	if st.gridded {
		g.cells.get(st.key)[st.slot].rank = st.rank
	}
}

// update re-buckets st at its current position p, reporting whether it
// changed cells. The indexed position is refreshed even when the cell is
// unchanged: collect's pre-prune bound (true position within IndexSlackM of
// the entry's ipos) holds exactly because ipos is as fresh as the last
// update sweep — the same cadence the cell-side slack already relies on.
func (g *gridIndex) update(st *station, p geom.Vec2) bool {
	if !st.gridded {
		return false
	}
	key := g.keyOf(p)
	if key == st.key {
		g.cells.get(key)[st.slot].ipos = p
		return false
	}
	g.remove(st)
	g.place(st, key, p)
	return true
}

// collect gathers every station bucketed in the 3x3 cell neighborhood of p
// whose indexed position keeps it within pruneFar2 (squared meters) of p,
// sorted ascending by ID — the same visit order the O(n) scan uses. Pruned
// stations are provably beyond the plausibility gate (see the contract at
// the top of this file); the caller accounts for them with the same bulk
// BelowSense skip as the out-of-neighborhood population, via
// len(ordered) - len(candidates). Pass +Inf to disable pruning.
//
// ordered is the medium's ID-sorted station list, whose indices are the
// entries' ranks. Each surviving entry sets its rank's bit; reading the
// bitset back word by word yields the candidates in rank order with no
// comparator calls, no sort and no merge. The returned slice is scratch
// memory owned by the index, valid until the next collect call.
func (g *gridIndex) collect(p geom.Vec2, pruneFar2 float64, ordered []*station) []*station {
	g.cand = g.cand[:0]
	if words := (len(ordered) + 63) / 64; len(g.marks) < words {
		g.marks = make([]uint64, words)
	}
	k := g.keyOf(p)
	for dy := int64(-1); dy <= 1; dy++ {
		for dx := int64(-1); dx <= 1; dx++ {
			b := g.cells.get(gridKey{k.x + dx, k.y + dy})
			// Every entry ORs its prune outcome in, so the loop has no
			// branch to mispredict (about a third of entries are pruned).
			for i := range b {
				in := bit(p.Dist2(b[i].ipos) < pruneFar2)
				r := b[i].rank
				g.marks[r>>6] |= in << (r & 63)
			}
		}
	}
	for w, word := range g.marks {
		if word == 0 {
			continue
		}
		g.marks[w] = 0
		for base := w << 6; word != 0; word &= word - 1 {
			g.cand = append(g.cand, ordered[base+bits.TrailingZeros64(word)])
		}
	}
	return g.cand
}

// bit returns 1 for true and 0 for false; the compiler emits it as a
// flag set, without a branch.
func bit(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// addTx buckets an in-flight transmission by its frozen origin.
func (g *gridIndex) addTx(tx *transmission) {
	tx.cell = g.keyOf(tx.pos)
	g.txCells.put(tx.cell, append(g.txCells.get(tx.cell), tx))
}

// removeTx unbuckets a reaped transmission.
func (g *gridIndex) removeTx(tx *transmission) {
	b := g.txCells.get(tx.cell)
	for i, t := range b {
		if t == tx {
			b[i] = b[len(b)-1]
			b[len(b)-1] = nil
			g.txCells.put(tx.cell, b[:len(b)-1])
			return
		}
	}
}
