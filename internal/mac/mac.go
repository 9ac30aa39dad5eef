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
	"fmt"
	"math"
	"slices"
	"sort"

	"cocoa/internal/geom"
	"cocoa/internal/mobility"
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
	// Motion returns the node's current true position and the motion leg
	// it is on (mobility.Waypoint.Motion). The medium keeps the leg per
	// station and evaluates it itself while the clock is before leg.Until,
	// calling Motion again only once the leg has expired. An endpoint whose
	// trajectory changes before its reported leg expires — it is moved by
	// hand, or its waypoint is held with HoldUntil — must be re-read:
	// Attach it again or call Medium.UpdatePosition, both of which call
	// Motion. An endpoint that never moves reports a leg valid forever.
	Motion() (geom.Vec2, mobility.Leg)
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
	// endFrame is the end-of-frame event: the sender's EndTx, reap, then
	// finishReceptions. It is bound once per pooled transmission and kept
	// across recycling like recs, so putting a frame on the air allocates
	// no closure.
	endFrame func()
}

// backoff is one frame waiting out a contention backoff: the carrier-sense
// round attempt will run at the end of it. Its run event is bound once per
// pooled record (newBackoff), so a retry allocates no closure.
type backoff struct {
	st          *station
	f           Frame
	attempt, cw int
	run         func()
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
	id int
	ep Endpoint
	// leg is the endpoint's motion leg as of its last Motion call, which
	// Attach makes first; see Medium.position.
	leg    mobility.Leg
	active []*reception // receptions in progress at this station
	// rank is the station's index in Medium.ordered.
	rank int
	// Spatial-index state (IndexGrid only): the cell the station is
	// bucketed in, whether it currently is bucketed, its slot in that
	// cell's bucket, and its own in-flight transmissions — the scan path
	// reports a station busy on its own transmission regardless of
	// distance, so the indexed carrier sense checks these directly instead
	// of relying on a cell query.
	key     gridKey
	gridded bool
	slot    int
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
	// order would randomize the RNG stream). Each station's rank is its
	// index here.
	ordered  []*station
	inflight []*transmission
	// queued counts the frames Send accepted that are not finished yet:
	// contending for the channel, or on the air until finishReceptions.
	queued int
	// idles counts the times queued fell to zero, and every Init, over the
	// medium's life: an Arena that saw another count last is free again.
	idles uint64
	stats Stats
	// freeRec and freeTx recycle reception/transmission structs: a dense
	// deployment starts tens of thousands of receptions per run, and each
	// one is dead by end-of-frame. freeSt holds the stations of the
	// previous Init for Attach to reuse. All three survive Init.
	freeRec []*reception
	freeTx  []*transmission
	freeSt  []*station
	// backoffs is every backoff record m has made and freeBackoff those not
	// scheduled. Init frees them all: the events of pending ones are gone
	// with the previous simulator.
	backoffs, freeBackoff []*backoff
	// recLive and txLive count the pooled structs in use, and recPeak and
	// txPeak their highs since Init: the pool telemetry counts a miss
	// whenever a get sets a new high — exactly when a pool emptied at
	// Init would have allocated — so it reads the same on a medium
	// re-initialised with warm pools as on a new one.
	recLive, recPeak int
	txLive, txPeak   int
	// Distance gates bracketing, in squared meters, where the monotone
	// mean path-loss curve crosses the carrier-sense and the
	// max-plausible-RSSI thresholds. Inside a bracket the exact dBm
	// comparison runs; outside, a squared-distance compare replaces the
	// Log10 — with identical outcomes, since MeanRSSI is non-increasing
	// in distance.
	senseNear2, senseFar2 float64
	plausNear2, plausFar2 float64
	// bounds tabulates the mean RSSI on whole-meter rungs out past
	// plausFar. beginReception samples against its ceiling first and
	// evaluates the exact mean only when the bound's sample reaches
	// sensitivity.
	bounds radio.MeanBounds
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
	m := new(Medium)
	if err := m.Init(s, cfg, rng); err != nil {
		return nil, err
	}
	return m, nil
}

// Init rewinds m, in place, to the medium NewMedium returns: no stations,
// nothing in flight, zero counts. It keeps the memory of the previous
// configuration for reuse — the reception, transmission, station and
// backoff pools, the station map and list, the spatial index's buckets, and the
// ceiling table — so re-initialising a medium for a run of the same size
// allocates nothing. Frames the previous run left on the air or in backoff
// are discarded; their events must be gone with the simulator they were
// scheduled on (sim.Simulator.Reset). On error m is unusable
// until a later Init succeeds.
func (m *Medium) Init(s *sim.Simulator, cfg Config, rng *sim.RNG) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, tx := range m.inflight {
		for _, rec := range tx.recs {
			m.releaseReception(rec)
		}
		m.releaseTransmission(tx)
	}
	for _, b := range m.backoffs {
		*b = backoff{run: b.run}
	}
	for _, st := range m.ordered {
		clear(st.active)
		clear(st.own)
		*st = station{active: st.active[:0], own: st.own[:0]}
		m.freeSt = append(m.freeSt, st)
	}
	if m.stations == nil {
		m.stations = make(map[int]*station)
	}
	clear(m.stations)
	clear(m.inflight)
	grid := m.grid
	if grid != nil {
		grid.clear()
	}
	*m = Medium{
		cfg:         cfg,
		sim:         s,
		rng:         rng,
		stations:    m.stations,
		ordered:     m.ordered[:0],
		inflight:    m.inflight[:0],
		freeRec:     m.freeRec,
		freeTx:      m.freeTx,
		freeSt:      m.freeSt,
		idles:       m.idles + 1,
		backoffs:    m.backoffs,
		freeBackoff: append(m.freeBackoff[:0], m.backoffs...),
		bounds:      m.bounds,
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
	m.bounds.Init(&m.cfg.Model, 1, math.Sqrt(m.plausFar2))
	if cfg.NeighborIndex == IndexGrid {
		// Cell side: beyond max(senseFar, plausFar) the scan path treats a
		// station identically to the bulk skip (transmit) or skips the
		// transmission outright (carrierBusy), so a 3x3 neighborhood of
		// cells this wide is a complete candidate set even after stations
		// drift up to IndexSlackM between updates. Unbounded brackets mean
		// nothing can ever be skipped; stay on the scan then.
		far2 := math.Max(m.plausFar2, m.senseFar2)
		if cell := math.Sqrt(far2) + cfg.IndexSlackM; !math.IsInf(cell, 1) && cell > 0 {
			if grid == nil {
				grid = new(gridIndex)
			}
			grid.setCell(cell)
			m.grid = grid
			pf := math.Sqrt(m.plausFar2) + cfg.IndexSlackM
			m.pruneFar2 = pf * pf
		}
	}
	return nil
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

// Attach registers an endpoint under the given node ID and reads its
// motion. Attaching the same ID twice replaces the previous endpoint.
func (m *Medium) Attach(id int, ep Endpoint) {
	st := m.newStation()
	st.id, st.ep = id, ep
	if old, ok := m.stations[id]; ok {
		st.rank = old.rank
		m.ordered[st.rank] = st
		if m.grid != nil {
			m.grid.remove(old)
		}
	} else {
		pos := sort.Search(len(m.ordered), func(i int) bool { return m.ordered[i].id > id })
		m.ordered = slices.Insert(m.ordered, pos, st)
		m.renumber(pos)
	}
	m.stations[id] = st
	p := st.sync()
	if m.grid != nil {
		m.grid.insert(st, p)
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
	m.ordered = slices.Delete(m.ordered, st.rank, st.rank+1)
	if m.grid != nil {
		m.grid.remove(st)
	}
	m.renumber(st.rank)
}

// renumber refreshes the ranks of ordered[from:] after an insertion or
// removal at from. A team attaches in ascending ID, so building one only
// ever renumbers the new tail station.
func (m *Medium) renumber(from int) {
	for i := from; i < len(m.ordered); i++ {
		st := m.ordered[i]
		st.rank = i
		if m.grid != nil {
			m.grid.setRank(st)
		}
	}
}

// UpdatePositions re-buckets every attached station at its current
// position, read through its cached motion leg. Spatial-index users must
// call it (or UpdatePosition) often enough that no station moves more than
// Config.IndexSlackM between updates; under IndexScan it is a no-op. The
// sweep is deterministic (ascending ID) and consumes no randomness, so
// calling it never perturbs a run's results.
func (m *Medium) UpdatePositions() {
	if m.grid == nil {
		return
	}
	m.tel.indexRebuilds++
	now := m.sim.Now()
	for _, st := range m.ordered {
		if m.grid.update(st, m.position(st, now)) {
			m.tel.indexMoves++
		}
	}
}

// UpdatePosition re-reads the motion of the station registered under id
// from its endpoint, dropping the cached leg, and re-buckets it; see
// UpdatePositions. It is how an endpoint whose trajectory bent before its
// leg expired resynchronizes the medium, under either index. Unknown ids
// are a no-op.
func (m *Medium) UpdatePosition(id int) {
	st, ok := m.stations[id]
	if !ok {
		return
	}
	p := st.sync()
	if m.grid != nil && m.grid.update(st, p) {
		m.tel.indexMoves++
	}
}

// position returns st's true position at now. While now is before the end
// of the station's cached leg the medium evaluates the leg itself — the
// expression mobility.Waypoint evaluates, so the bits are the endpoint's —
// and asks the endpoint only once the leg has expired. Skipping the
// endpoint's own position queries cannot move it: a waypoint trajectory is
// a pure function of its RNG stream (see mobility.Waypoint).
func (m *Medium) position(st *station, now sim.Time) geom.Vec2 {
	if now < st.leg.Until {
		return st.leg.At(now)
	}
	return st.sync()
}

// sync reads st's position and current leg from its endpoint.
func (st *station) sync() geom.Vec2 {
	p, leg := st.ep.Motion()
	st.leg = leg
	return p
}

// Stats returns a copy of the MAC counters.
func (m *Medium) Stats() Stats { return m.stats }

// Counts is a value copy of a run's mac.* counts. It stays publishable
// after the medium is re-initialised for another run.
type Counts struct {
	stats Stats
	tel   medTel
}

// Counts returns the run's mac.* counts.
func (m *Medium) Counts() Counts { return Counts{m.stats, m.tel} }

// Publish adds the counts to reg: Stats plus medTel.
func (c *Counts) Publish(reg *telemetry.Registry) {
	reg.Add("mac.sent", c.stats.Sent)
	reg.Add("mac.delivered", c.stats.Delivered)
	reg.Add("mac.collided", c.stats.Collided)
	reg.Add("mac.below_sense", c.stats.BelowSense)
	reg.Add("mac.missed_asleep", c.stats.MissedAsleep)
	reg.Add("mac.dropped_busy", c.stats.DroppedBusy)
	reg.Add("mac.backoffs", c.stats.BackoffEvents)
	reg.Add("mac.rssi_gate_skips", c.tel.gateSkips)
	reg.Add("mac.receiver_visits", c.tel.visits)
	reg.Add("mac.pool_hits", c.tel.poolHits)
	reg.Add("mac.pool_misses", c.tel.poolMisses)
	reg.Add("mac.index_cells_scanned", c.tel.indexCells)
	reg.Add("mac.index_candidates", c.tel.indexCands)
	reg.Add("mac.index_bulk_skips", c.tel.indexSkips)
	reg.Add("mac.index_moves", c.tel.indexMoves)
	reg.Add("mac.index_rebuilds", c.tel.indexRebuilds)
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
	m.queued++
	m.attempt(st, f, 1, m.cfg.MinCW)
	return nil
}

// Idle reports whether every frame Send accepted is finished — dropped, or
// delivered at its end of frame — so the medium holds no Frame.Payload.
func (m *Medium) Idle() bool { return m.queued == 0 }

// attempt performs one carrier-sense round.
func (m *Medium) attempt(st *station, f Frame, attempt, cw int) {
	if !m.carrierBusy(st) {
		m.transmit(st, f)
		return
	}
	if attempt >= m.cfg.MaxAttempts {
		m.stats.DroppedBusy++
		m.finished()
		return
	}
	m.stats.BackoffEvents++
	backoff := sim.Time(m.rng.Intn(cw)+1) * m.cfg.SlotS
	next := cw * 2
	if next > m.cfg.MaxCW {
		next = m.cfg.MaxCW
	}
	b := m.newBackoff()
	b.st, b.f, b.attempt, b.cw = st, f, attempt+1, next
	m.sim.Schedule(backoff, b.run)
}

// newBackoff pops a free backoff record or makes one with its run event
// bound. run frees the record before its carrier-sense round, which may
// back off again.
func (m *Medium) newBackoff() *backoff {
	if n := len(m.freeBackoff); n > 0 {
		b := m.freeBackoff[n-1]
		m.freeBackoff = m.freeBackoff[:n-1]
		return b
	}
	b := new(backoff)
	b.run = func() {
		st, f, attempt, cw := b.st, b.f, b.attempt, b.cw
		*b = backoff{run: b.run}
		m.freeBackoff = append(m.freeBackoff, b)
		m.attempt(st, f, attempt, cw)
	}
	m.backoffs = append(m.backoffs, b)
	return b
}

// carrierBusy reports whether station st senses energy on the channel.
// Any in-flight transmission whose mean signal at st exceeds the receiver
// sensitivity counts, including the station's own transmissions.
func (m *Medium) carrierBusy(st *station) bool {
	now := m.sim.Now()
	pos := m.position(st, now)
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
// sensitivity, through the rssiGate squared-distance brackets.
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
	tx.frame, tx.from, tx.start, tx.end, tx.pos = f, st, now, now+dur, m.position(st, now)
	m.inflight = append(m.inflight, tx)
	if m.grid != nil {
		m.grid.addTx(tx)
		st.own = append(st.own, tx)
	}
	m.stats.Sent++
	m.stats.BytesOnAir += totalBytes
	m.stats.AirtimeS += dur

	st.ep.BeginTx()
	m.sim.Schedule(dur, tx.endFrame)

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
	cands := m.grid.collect(tx.pos, m.pruneFar2, m.ordered)
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
	d2 := m.position(rcv, tx.start).Dist2(tx.pos)
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
	// Signals below sensitivity neither decode nor meaningfully interfere;
	// skip them entirely. The ceiling decides most of them without the
	// path-loss logarithm, after the same draws as SampleRSSI.
	rssi, ok := m.cfg.Model.SampleRSSIAbove(d, m.bounds.Ceil(d), m.cfg.Model.SensitivityDBm, m.rng)
	if !ok {
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
	m.finished()
}

// finished counts one frame Send accepted as finished.
func (m *Medium) finished() {
	m.queued--
	if m.queued == 0 {
		m.idles++
	}
}

// countPoolGet counts one get from a pool with live structs in use after
// it and a high of *peak since Init (see Medium.recLive).
func (m *Medium) countPoolGet(live int, peak *int) {
	if live > *peak {
		*peak = live
		m.tel.poolMisses++
		return
	}
	m.tel.poolHits++
}

// newReception pops a recycled reception or allocates a fresh one.
func (m *Medium) newReception() *reception {
	m.recLive++
	m.countPoolGet(m.recLive, &m.recPeak)
	if n := len(m.freeRec); n > 0 {
		rec := m.freeRec[n-1]
		m.freeRec = m.freeRec[:n-1]
		return rec
	}
	return &reception{}
}

func (m *Medium) releaseReception(rec *reception) {
	m.recLive--
	*rec = reception{}
	m.freeRec = append(m.freeRec, rec)
}

// newStation pops a station the previous Init released, or allocates one.
func (m *Medium) newStation() *station {
	if n := len(m.freeSt); n > 0 {
		st := m.freeSt[n-1]
		m.freeSt[n-1] = nil
		m.freeSt = m.freeSt[:n-1]
		return st
	}
	return &station{}
}

// newTransmission pops a recycled transmission or allocates a fresh one.
func (m *Medium) newTransmission() *transmission {
	m.txLive++
	m.countPoolGet(m.txLive, &m.txPeak)
	if n := len(m.freeTx); n > 0 {
		tx := m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.endFrame = func() {
		tx.from.ep.EndTx()
		m.reap(tx)
		m.finishReceptions(tx)
	}
	return tx
}

func (m *Medium) releaseTransmission(tx *transmission) {
	m.txLive--
	recs, endFrame := tx.recs[:0], tx.endFrame
	*tx = transmission{}
	tx.recs, tx.endFrame = recs, endFrame
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
