// Package mac implements a simplified IEEE 802.11-style broadcast MAC over
// the radio model: carrier sensing with binary-exponential backoff,
// per-receiver RSSI sampling, receiver-side collision resolution with
// physical-layer capture, and sleep-awareness (frames transmitted while a
// receiver sleeps are lost, which is exactly the behaviour CoCoA's
// coordination must work around).
//
// Broadcast frames are unacknowledged, as in real 802.11: the paper's
// beacons are UDP broadcasts and rely on k-fold repetition for reliability.
package mac

import (
	"cocoa/internal/checkpoint"
	"fmt"
	"math"
	"sort"

	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

// Frame is a broadcast MAC frame. Payload is opaque to the MAC.
type Frame struct {
	From    int // sender node ID
	Kind    int // application-defined frame type
	Bytes   int // payload size including IP/UDP headers
	Payload any
}

// Endpoint is the per-node attachment point the network layer implements.
// The MAC drives radio-state energy accounting through Begin/End callbacks.
type Endpoint interface {
	// Position returns the node's current true position.
	Position() geom.Vec2
	// Listening reports whether the radio can currently receive
	// (awake, powered, not transmitting).
	Listening() bool
	// BeginTx and EndTx bracket a transmission for energy accounting.
	BeginTx()
	EndTx()
	// BeginRx and EndRx bracket an incoming frame for energy accounting.
	BeginRx()
	EndRx()
	// Deliver hands a successfully decoded frame and its RSSI up the stack.
	Deliver(f Frame, rssiDBm float64)
}

// NeighborIndex selects the medium's receiver-candidate strategy.
type NeighborIndex int

const (
	// IndexScan examines every attached station for every frame — the O(n)
	// reference path. It needs no position maintenance and is the zero
	// value, so existing Medium users keep their exact behavior.
	IndexScan NeighborIndex = iota
	// IndexGrid buckets stations in a uniform spatial hash sized from the
	// radio model's far gate brackets, so each frame visits only the 3x3
	// cell neighborhood of its transmitter. Results are byte-identical to
	// IndexScan provided callers keep the index fresh: after stations move,
	// UpdatePositions (or UpdatePosition) must run before no station has
	// drifted more than Config.IndexSlackM from its last indexed position.
	// Radio models whose far brackets are unbounded fall back to the scan
	// silently (every station is always a candidate there anyway).
	IndexGrid
)

// Config holds MAC-layer parameters.
type Config struct {
	Model radio.Model
	// SlotS is the contention slot time in seconds (802.11b: 20 us).
	SlotS sim.Time
	// MinCW and MaxCW bound the contention window (slots).
	MinCW int
	MaxCW int
	// MaxAttempts bounds carrier-sense retries before the frame is dropped.
	MaxAttempts int
	// OverheadBytes is the MAC header + FCS added to every frame.
	OverheadBytes int
	// PreambleS is the fixed PLCP preamble time prepended to each frame.
	PreambleS sim.Time
	// NeighborIndex selects how transmit and carrierBusy find candidate
	// stations; the zero value is the brute-force scan.
	NeighborIndex NeighborIndex
	// IndexSlackM widens the spatial hash cells by the maximum distance a
	// station may move between position updates (IndexGrid only). Callers
	// typically set it to max speed times their update interval.
	IndexSlackM float64
}

// DefaultConfig returns 802.11b-like MAC parameters over the given radio
// model.
func DefaultConfig(m radio.Model) Config {
	return Config{
		Model:         m,
		SlotS:         20e-6,
		MinCW:         32,
		MaxCW:         1024,
		MaxAttempts:   7,
		OverheadBytes: 34,
		PreambleS:     192e-6,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	switch {
	case c.SlotS <= 0:
		return fmt.Errorf("mac: SlotS must be positive")
	case c.MinCW <= 0 || c.MaxCW < c.MinCW:
		return fmt.Errorf("mac: bad contention window [%d,%d]", c.MinCW, c.MaxCW)
	case c.MaxAttempts <= 0:
		return fmt.Errorf("mac: MaxAttempts must be positive")
	case c.OverheadBytes < 0 || c.PreambleS < 0:
		return fmt.Errorf("mac: negative overhead")
	case c.NeighborIndex < IndexScan || c.NeighborIndex > IndexGrid:
		return fmt.Errorf("mac: unknown NeighborIndex %d", int(c.NeighborIndex))
	case c.IndexSlackM < 0 || math.IsNaN(c.IndexSlackM) || math.IsInf(c.IndexSlackM, 0):
		return fmt.Errorf("mac: IndexSlackM must be finite and non-negative")
	}
	return nil
}

// Stats counts MAC-level outcomes across all stations. Forwarding
// efficiency for MRMM and beacon-delivery reliability both read from here.
type Stats struct {
	Sent          int // frames put on the air
	DroppedBusy   int // frames dropped after exhausting backoff attempts
	Delivered     int // (frame, receiver) successful deliveries
	Collided      int // (frame, receiver) losses due to collision
	BelowSense    int // (frame, receiver) losses due to weak signal
	MissedAsleep  int // (frame, receiver) losses because the radio slept
	BytesOnAir    int // total bytes transmitted including MAC overhead
	AirtimeS      sim.Time
	TxRequests    int
	BackoffEvents int
}

// transmission is one frame in flight on the shared medium.
type transmission struct {
	frame Frame
	from  *station
	start sim.Time
	end   sim.Time
	pos   geom.Vec2
	// cell is the spatial-hash bucket holding this transmission while it is
	// in flight (IndexGrid only), keyed from the frozen pos.
	cell gridKey
	// recs lists the receptions in progress for this frame, in the order
	// they began (ascending receiver ID). Every reception ends exactly at
	// tx.end, so one end-of-frame event walks this list instead of each
	// reception scheduling its own — the walk order matches the scheduling
	// order the per-reception events had, so outcomes are unchanged.
	recs []*reception
}

// reception tracks one (transmission, receiver) pair in progress.
type reception struct {
	tx        *transmission
	rcv       *station
	rssi      float64
	corrupted bool
}

// station is the Medium's view of one attached endpoint.
type station struct {
	id     int
	ep     Endpoint
	active []*reception // receptions in progress at this station
	// Spatial-index state (IndexGrid only): the cell the station is
	// bucketed in, whether it currently is bucketed, and its own in-flight
	// transmissions — the scan path reports a station busy on its own
	// transmission regardless of distance, so the indexed carrier sense
	// checks these directly instead of relying on a cell query.
	key     gridKey
	gridded bool
	own     []*transmission
}

// Medium is the shared broadcast channel all robots contend on.
type Medium struct {
	cfg      Config
	sim      *sim.Simulator
	rng      *sim.RNG
	stations map[int]*station
	// ordered lists stations in ascending ID order: per-receiver noise is
	// drawn in this order, keeping runs deterministic (map iteration
	// order would randomize the RNG stream).
	ordered  []*station
	inflight []*transmission
	stats    Stats
	// freeRec and freeTx recycle reception/transmission structs: a dense
	// deployment starts tens of thousands of receptions per run, and each
	// one is dead by end-of-frame.
	freeRec []*reception
	freeTx  []*transmission
	// Distance gates bracketing, in squared meters, where the monotone
	// mean path-loss curve crosses the carrier-sense and the
	// max-plausible-RSSI thresholds. Inside a bracket the exact dBm
	// comparison runs; outside, a squared-distance compare replaces the
	// Log10 — with identical outcomes, since MeanRSSI is non-increasing
	// in distance.
	senseNear2, senseFar2 float64
	plausNear2, plausFar2 float64
	// pruneFar2 (IndexGrid only) is (sqrt(plausFar2) + IndexSlackM)²:
	// an indexed-position distance this large proves the true distance is
	// at least plausFar even after maximal drift, so the receiver would
	// take beginReception's no-RNG gate branch — prunable in bulk.
	pruneFar2 float64
	// grid is the spatial neighbor index; nil selects the brute-force scan
	// (IndexScan, or IndexGrid over a radio model with unbounded brackets).
	grid *gridIndex
	// tel holds the run telemetry stats does not (see Publish).
	tel medTel
}

// medTel counts MAC work beyond the Stats outcomes, for run telemetry.
type medTel struct {
	// gateSkips counts receivers the squared-distance plausibility gate
	// skips before any noise is drawn: why dense deployments stay cheap.
	gateSkips int
	// visits counts stations individually examined per frame. The index
	// visits only 3x3-neighborhood candidates, so this count — not wall
	// time — is the deterministic measure of what the index saves.
	visits               int
	poolHits, poolMisses int
	// Spatial-index work (zero under IndexScan), exempt from the index
	// on/off telemetry-equality contract the other counts obey.
	indexCells, indexCands, indexSkips, indexMoves, indexRebuilds int
}

// NewMedium builds a medium over the given simulator. The RNG stream drives
// channel noise and backoff; it must be dedicated to the MAC.
func NewMedium(s *sim.Simulator, cfg Config, rng *sim.RNG) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Medium{
		cfg:      cfg,
		sim:      s,
		rng:      rng,
		stations: make(map[int]*station),
	}
	m.senseNear2, m.senseFar2 = rssiGate(
		cfg.Model.MeanRSSI,
		cfg.Model.DistanceForRSSI(cfg.Model.SensitivityDBm),
		cfg.Model.SensitivityDBm)
	// MaxPlausibleRSSI(d) < sensitivity iff MeanRSSI(d) < sensitivity-5*sigma.
	plausDBm := cfg.Model.SensitivityDBm - 5*cfg.Model.ShadowSigmaDB
	m.plausNear2, m.plausFar2 = rssiGate(
		cfg.Model.MeanRSSI,
		cfg.Model.DistanceForRSSI(plausDBm),
		plausDBm)
	if cfg.NeighborIndex == IndexGrid {
		// Cell side: beyond max(senseFar, plausFar) the scan path treats a
		// station identically to the bulk skip (transmit) or skips the
		// transmission outright (carrierBusy), so a 3x3 neighborhood of
		// cells this wide is a complete candidate set even after stations
		// drift up to IndexSlackM between updates. Unbounded brackets mean
		// nothing can ever be skipped; stay on the scan then.
		far2 := math.Max(m.plausFar2, m.senseFar2)
		if cell := math.Sqrt(far2) + cfg.IndexSlackM; !math.IsInf(cell, 1) && cell > 0 {
			m.grid = newGridIndex(cell)
			pf := math.Sqrt(m.plausFar2) + cfg.IndexSlackM
			m.pruneFar2 = pf * pf
		}
	}
	return m, nil
}

// rssiGate brackets the crossing distance of the monotone non-increasing
// curve f against threshold: d² <= near2 guarantees f(d) >= threshold and
// d² >= far2 guarantees f(d) < threshold, both verified by evaluating f at
// the bracket edges. Between the brackets callers must evaluate f, so gated
// decisions are everywhere identical to ungated ones.
func rssiGate(f func(float64) float64, cross, threshold float64) (near2, far2 float64) {
	if !(cross > 0) || math.IsInf(cross, 0) {
		return -1, math.Inf(1) // degenerate model: always evaluate f
	}
	near := cross * 0.999
	for i := 0; f(near) < threshold; i++ {
		if i == 60 || near == 0 {
			near = 0
			break
		}
		near *= 0.5
	}
	far := cross * 1.001
	for i := 0; f(far) >= threshold; i++ {
		if i == 60 || math.IsInf(far, 1) {
			return near * near, math.Inf(1)
		}
		far *= 2
	}
	return near * near, far * far
}

// Attach registers an endpoint under the given node ID. Attaching the same
// ID twice replaces the previous endpoint.
func (m *Medium) Attach(id int, ep Endpoint) {
	st := &station{id: id, ep: ep}
	if old, ok := m.stations[id]; ok {
		for i, s := range m.ordered {
			if s == old {
				m.ordered[i] = st
				break
			}
		}
		if m.grid != nil {
			m.grid.remove(old)
		}
	} else {
		pos := sort.Search(len(m.ordered), func(i int) bool { return m.ordered[i].id > id })
		m.ordered = append(m.ordered, nil)
		copy(m.ordered[pos+1:], m.ordered[pos:])
		m.ordered[pos] = st
	}
	m.stations[id] = st
	if m.grid != nil {
		m.grid.insert(st)
	}
}

// Detach removes the endpoint registered under id from every candidate
// structure: a detached station is never visited, counted, or charged again,
// which is how crashed or powered-off robots stop costing per-frame work.
// Receptions already in progress at the station still resolve at end of
// frame (a dead radio drops them exactly as before). Unknown ids are a
// no-op. Re-attaching the same id later restores the station as new.
func (m *Medium) Detach(id int) {
	st, ok := m.stations[id]
	if !ok {
		return
	}
	delete(m.stations, id)
	i := sort.Search(len(m.ordered), func(i int) bool { return m.ordered[i].id >= id })
	if i < len(m.ordered) && m.ordered[i] == st {
		m.ordered = append(m.ordered[:i], m.ordered[i+1:]...)
	}
	if m.grid != nil {
		m.grid.remove(st)
	}
}

// UpdatePositions re-buckets every attached station at its current endpoint
// position. Spatial-index users must call it (or UpdatePosition) often
// enough that no station moves more than Config.IndexSlackM between
// updates; under IndexScan it is a no-op. The sweep is deterministic
// (ascending ID) and consumes no randomness, so calling it never perturbs a
// run's results.
func (m *Medium) UpdatePositions() {
	if m.grid == nil {
		return
	}
	m.tel.indexRebuilds++
	for _, st := range m.ordered {
		if m.grid.update(st) {
			m.tel.indexMoves++
		}
	}
}

// UpdatePosition re-buckets the single station registered under id; see
// UpdatePositions. Unknown ids are a no-op.
func (m *Medium) UpdatePosition(id int) {
	if m.grid == nil {
		return
	}
	if st, ok := m.stations[id]; ok && m.grid.update(st) {
		m.tel.indexMoves++
	}
}

// Stats returns a copy of the MAC counters.
func (m *Medium) Stats() Stats { return m.stats }

// Publish adds the run's mac.* counts to reg: Stats plus medTel.
func (m *Medium) Publish(reg *telemetry.Registry) {
	reg.Add("mac.sent", m.stats.Sent)
	reg.Add("mac.delivered", m.stats.Delivered)
	reg.Add("mac.collided", m.stats.Collided)
	reg.Add("mac.below_sense", m.stats.BelowSense)
	reg.Add("mac.missed_asleep", m.stats.MissedAsleep)
	reg.Add("mac.dropped_busy", m.stats.DroppedBusy)
	reg.Add("mac.backoffs", m.stats.BackoffEvents)
	reg.Add("mac.rssi_gate_skips", m.tel.gateSkips)
	reg.Add("mac.receiver_visits", m.tel.visits)
	reg.Add("mac.pool_hits", m.tel.poolHits)
	reg.Add("mac.pool_misses", m.tel.poolMisses)
	reg.Add("mac.index_cells_scanned", m.tel.indexCells)
	reg.Add("mac.index_candidates", m.tel.indexCands)
	reg.Add("mac.index_bulk_skips", m.tel.indexSkips)
	reg.Add("mac.index_moves", m.tel.indexMoves)
	reg.Add("mac.index_rebuilds", m.tel.indexRebuilds)
}

// Config returns the medium's configuration.
func (m *Medium) Config() Config { return m.cfg }

// Send queues a broadcast frame from the given node, contending for the
// channel with CSMA. The frame is transmitted after carrier sensing
// succeeds or dropped after Config.MaxAttempts busy rounds.
func (m *Medium) Send(from int, f Frame) error {
	st, ok := m.stations[from]
	if !ok {
		return fmt.Errorf("mac: unknown sender %d", from)
	}
	f.From = from
	m.stats.TxRequests++
	m.attempt(st, f, 1, m.cfg.MinCW)
	return nil
}

// attempt performs one carrier-sense round.
func (m *Medium) attempt(st *station, f Frame, attempt, cw int) {
	if !m.carrierBusy(st) {
		m.transmit(st, f)
		return
	}
	if attempt >= m.cfg.MaxAttempts {
		m.stats.DroppedBusy++
		return
	}
	m.stats.BackoffEvents++
	backoff := sim.Time(m.rng.Intn(cw)+1) * m.cfg.SlotS
	next := cw * 2
	if next > m.cfg.MaxCW {
		next = m.cfg.MaxCW
	}
	m.sim.Schedule(backoff, func() { m.attempt(st, f, attempt+1, next) })
}

// carrierBusy reports whether station st senses energy on the channel.
// Any in-flight transmission whose mean signal at st exceeds the receiver
// sensitivity counts, including the station's own transmissions.
func (m *Medium) carrierBusy(st *station) bool {
	now := m.sim.Now()
	pos := st.ep.Position()
	if m.grid != nil {
		return m.carrierBusyGrid(st, pos, now)
	}
	for _, tx := range m.inflight {
		if tx.end <= now {
			continue
		}
		if tx.from == st {
			return true
		}
		if m.txAudible(pos, tx) {
			return true
		}
	}
	return false
}

// carrierBusyGrid is carrierBusy over the spatial index: the station's own
// transmissions count at any distance (matching the scan's tx.from check),
// and any other transmission loud enough to sense originates within
// senseFar < cell side of the station, so the 3x3 neighborhood query sees
// it. Both paths evaluate the same predicate over the same transmissions;
// only the visit order differs, which a boolean OR cannot observe.
func (m *Medium) carrierBusyGrid(st *station, pos geom.Vec2, now sim.Time) bool {
	for _, tx := range st.own {
		if tx.end > now {
			return true
		}
	}
	k := m.grid.keyOf(pos)
	m.tel.indexCells += 9
	for dy := int64(-1); dy <= 1; dy++ {
		for dx := int64(-1); dx <= 1; dx++ {
			for _, tx := range m.grid.txCells.get(gridKey{k.x + dx, k.y + dy}) {
				if tx.end <= now || tx.from == st {
					continue
				}
				if m.txAudible(pos, tx) {
					return true
				}
			}
		}
	}
	return false
}

// txAudible reports whether tx's mean signal at pos reaches the carrier
// sensitivity, through the PR 3 squared-distance gates.
func (m *Medium) txAudible(pos geom.Vec2, tx *transmission) bool {
	d2 := pos.Dist2(tx.pos)
	if d2 <= m.senseNear2 {
		return true
	}
	if d2 >= m.senseFar2 {
		return false
	}
	return m.cfg.Model.MeanRSSI(math.Sqrt(d2)) >= m.cfg.Model.SensitivityDBm
}

// transmit puts the frame on the air and schedules per-receiver outcomes.
func (m *Medium) transmit(st *station, f Frame) {
	now := m.sim.Now()
	totalBytes := f.Bytes + m.cfg.OverheadBytes
	dur := m.cfg.PreambleS + m.cfg.Model.Airtime(totalBytes)
	tx := m.newTransmission()
	tx.frame, tx.from, tx.start, tx.end, tx.pos = f, st, now, now+dur, st.ep.Position()
	m.inflight = append(m.inflight, tx)
	if m.grid != nil {
		m.grid.addTx(tx)
		st.own = append(st.own, tx)
	}
	m.stats.Sent++
	m.stats.BytesOnAir += totalBytes
	m.stats.AirtimeS += dur

	st.ep.BeginTx()
	m.sim.Schedule(dur, func() {
		st.ep.EndTx()
		m.reap(tx)
		m.finishReceptions(tx)
	})

	if m.grid == nil {
		for _, rcv := range m.ordered {
			if rcv == st {
				continue
			}
			m.beginReception(rcv, tx)
		}
		return
	}

	// Indexed path. Everything outside the 3x3 neighborhood — and every
	// neighbor whose indexed position proves it beyond plausFar even after
	// maximal IndexSlackM drift — is provably beyond the plausibility
	// gate, so it takes the same BelowSense branch the scan's per-station
	// loop would — in bulk, without being visited or drawing randomness.
	// The candidates (a superset of every station the scan would sample,
	// including the transmitter itself when attached) then run the ordinary
	// per-station decision in the same ascending-ID order as the scan.
	cands := m.grid.collect(tx.pos, m.pruneFar2)
	m.tel.indexCells += 9
	m.tel.indexCands += len(cands)
	if skipped := len(m.ordered) - len(cands); skipped > 0 {
		m.stats.BelowSense += skipped
		m.tel.gateSkips += skipped
		m.tel.indexSkips += skipped
	}
	for _, rcv := range cands {
		if rcv == st {
			continue
		}
		m.beginReception(rcv, tx)
	}
}

// beginReception decides the fate of tx at receiver rcv. Receptions that
// survive the begin-of-frame checks are resolved by finishReceptions when
// the frame leaves the air.
func (m *Medium) beginReception(rcv *station, tx *transmission) {
	m.tel.visits++
	// Hard out-of-range cutoff: when even a +5-sigma fluctuation cannot
	// reach sensitivity, skip the receiver without drawing noise.
	d2 := rcv.ep.Position().Dist2(tx.pos)
	if d2 >= m.plausFar2 {
		m.stats.BelowSense++
		m.tel.gateSkips++
		return
	}
	d := math.Sqrt(d2)
	if d2 > m.plausNear2 && m.cfg.Model.MaxPlausibleRSSI(d) < m.cfg.Model.SensitivityDBm {
		m.stats.BelowSense++
		return
	}
	rssi := m.cfg.Model.SampleRSSI(d, m.rng)
	// Signals more than a margin below sensitivity neither decode nor
	// meaningfully interfere; skip them entirely.
	if rssi < m.cfg.Model.SensitivityDBm {
		m.stats.BelowSense++
		return
	}
	if !rcv.ep.Listening() {
		m.stats.MissedAsleep++
		return
	}

	rec := m.newReception()
	rec.tx, rec.rcv, rec.rssi = tx, rcv, rssi
	// Collision resolution against receptions already in progress.
	for _, other := range rcv.active {
		switch {
		case other.rssi >= rec.rssi+m.cfg.Model.CaptureThresholdDB:
			rec.corrupted = true
		case rec.rssi >= other.rssi+m.cfg.Model.CaptureThresholdDB:
			other.corrupted = true
		default:
			rec.corrupted = true
			other.corrupted = true
		}
	}
	rcv.active = append(rcv.active, rec)
	tx.recs = append(tx.recs, rec)
	rcv.ep.BeginRx()
}

// finishReceptions resolves every reception of tx at end-of-frame, in the
// order the receptions began. Interleaving EndRx and Deliver per receiver
// reproduces exactly what the former per-reception events did.
func (m *Medium) finishReceptions(tx *transmission) {
	for _, rec := range tx.recs {
		rcv := rec.rcv
		rcv.ep.EndRx()
		rcv.removeReception(rec)
		switch {
		case rec.corrupted:
			m.stats.Collided++
		case !rcv.ep.Listening():
			// The radio went to sleep mid-frame.
			m.stats.MissedAsleep++
		default:
			m.stats.Delivered++
			rcv.ep.Deliver(tx.frame, rec.rssi)
		}
		m.releaseReception(rec)
	}
	m.releaseTransmission(tx)
}

// newReception pops a recycled reception or allocates a fresh one.
func (m *Medium) newReception() *reception {
	if n := len(m.freeRec); n > 0 {
		rec := m.freeRec[n-1]
		m.freeRec = m.freeRec[:n-1]
		m.tel.poolHits++
		return rec
	}
	m.tel.poolMisses++
	return &reception{}
}

func (m *Medium) releaseReception(rec *reception) {
	*rec = reception{}
	m.freeRec = append(m.freeRec, rec)
}

// newTransmission pops a recycled transmission or allocates a fresh one.
func (m *Medium) newTransmission() *transmission {
	if n := len(m.freeTx); n > 0 {
		tx := m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
		m.tel.poolHits++
		return tx
	}
	m.tel.poolMisses++
	return &transmission{}
}

func (m *Medium) releaseTransmission(tx *transmission) {
	recs := tx.recs[:0]
	*tx = transmission{}
	tx.recs = recs
	m.freeTx = append(m.freeTx, tx)
}

func (s *station) removeReception(r *reception) {
	for i, rec := range s.active {
		if rec == r {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// reap removes a completed transmission from the in-flight list and, with
// the spatial index enabled, from its cell bucket and its sender's own list.
func (m *Medium) reap(tx *transmission) {
	if m.grid != nil {
		m.grid.removeTx(tx)
		own := tx.from.own
		for i, t := range own {
			if t == tx {
				own[i] = own[len(own)-1]
				own[len(own)-1] = nil
				tx.from.own = own[:len(own)-1]
				break
			}
		}
	}
	for i, t := range m.inflight {
		if t == tx {
			m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
			return
		}
	}
}

// HashState folds the medium's deterministic mid-run state into h, for
// checkpoint digests: the aggregate counters, every attached station's
// in-progress receptions, and the transmissions in flight. The MAC's RNG
// stream is digested through the run's stream tree.
func (m *Medium) HashState(h *checkpoint.Hasher) {
	h.Int(m.stats.Sent)
	h.Int(m.stats.DroppedBusy)
	h.Int(m.stats.Delivered)
	h.Int(m.stats.Collided)
	h.Int(m.stats.BelowSense)
	h.Int(m.stats.MissedAsleep)
	h.Int(m.stats.BytesOnAir)
	h.F64(float64(m.stats.AirtimeS))
	h.Int(m.stats.TxRequests)
	h.Int(m.stats.BackoffEvents)
	h.Int(len(m.ordered))
	for _, st := range m.ordered {
		h.Int(st.id)
		h.Int(len(st.active))
		for _, rc := range st.active {
			h.F64(rc.rssi)
			h.Bool(rc.corrupted)
		}
		h.Int(len(st.own))
	}
	h.Int(len(m.inflight))
	for _, tx := range m.inflight {
		h.Int(tx.frame.From)
		h.Int(tx.frame.Kind)
		h.Int(tx.frame.Bytes)
		h.F64(float64(tx.start))
		h.F64(float64(tx.end))
		h.F64(tx.pos.X)
		h.F64(tx.pos.Y)
	}
}
