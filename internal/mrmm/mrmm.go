// Package mrmm implements MRMM (Mobile Robot Mesh Multicast), the
// ODMRP-derived multicast protocol CoCoA uses to disseminate SYNC messages
// (Das et al., ICRA 2005; Section 2.3 of the CoCoA paper).
//
// Like ODMRP, the protocol has two phases:
//
//   - Mesh construction and maintenance: the source floods a JOIN QUERY;
//     group members answer with JOIN REPLYs that travel back toward the
//     source, recruiting the nodes they traverse into the forwarding group
//     (the mesh).
//
//   - Data delivery: data packets are broadcast; forwarding-group members
//     rebroadcast unseen packets so every member receives them.
//
// MRMM extends ODMRP with mesh pruning driven by the mobility knowledge
// available in robot networks (the paper's d_rest, v and t): when a member
// chooses its upstream node from the JOIN QUERY copies it heard, it picks
// the neighbor whose radio link is predicted to survive longest, instead
// of the first copy to arrive. Longer-lived upstreams concentrate the
// forwarding group on stable robots, producing a sparser mesh (P ⊆ F),
// fewer rebroadcasts, and better forwarding efficiency.
package mrmm

import (
	"fmt"
	"math"

	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/network"
	"cocoa/internal/sim"
)

// MobilityInfo is the mobility knowledge piggybacked on control packets:
// position, commanded velocity, and remaining rest time at the current
// spot.
type MobilityInfo struct {
	Pos  geom.Vec2
	Vel  geom.Vec2
	Rest sim.Time
}

// Packet sizes in bytes, counting IP/UDP headers like the paper's beacons.
const (
	joinQueryBytes = network.IPHeaderBytes + network.UDPHeaderBytes + 44
	joinReplyBytes = network.IPHeaderBytes + network.UDPHeaderBytes + 48
)

// JoinQuery is the mesh-construction flood packet.
type JoinQuery struct {
	Source  int
	Seq     int
	Hops    int
	PrevHop int
	Info    MobilityInfo // mobility knowledge of the rebroadcasting node
}

// JoinReply activates the reverse path: the node named NextHop joins the
// forwarding group.
type JoinReply struct {
	Member  int
	Source  int
	Seq     int
	NextHop int
}

// Data is a multicast payload delivered over the mesh.
type Data struct {
	Source  int
	Seq     int
	Payload any
}

// Frames is the storage MRMM frames on one medium point into: a JOIN
// QUERY, JOIN REPLY or data packet travels as a pointer into its
// mac.Arena, and a receiving protocol copies it out. Every protocol on the
// medium may share one Frames.
type Frames struct {
	med     *mac.Medium
	queries mac.Arena[JoinQuery]
	replies mac.Arena[JoinReply]
	data    mac.Arena[Data]
}

// NewFrames returns empty frame storage for protocols on m.
func NewFrames(m *mac.Medium) *Frames { return &Frames{med: m} }

// Config holds protocol parameters.
type Config struct {
	// MaxHops bounds JOIN QUERY flooding.
	MaxHops int
	// FGTimeoutS is how long forwarding-group membership persists after
	// the last JOIN REPLY named this node.
	FGTimeoutS sim.Time
	// ReplyDelayMinS and ReplyDelayMaxS bound the jitter members wait
	// before answering a query, letting duplicate queries arrive so the
	// pruning step can compare candidate upstreams.
	ReplyDelayMinS sim.Time
	ReplyDelayMaxS sim.Time
	// ForwardJitterMaxS randomizes rebroadcast times to avoid
	// synchronized collisions.
	ForwardJitterMaxS sim.Time
	// LinkRangeM is the assumed radio range for link-lifetime prediction.
	LinkRangeM float64
	// MinLifetimeS is the pruning policy's stability floor: among
	// upstream candidates whose predicted link lifetime meets the floor,
	// the member picks the fewest-hop one (preserving ODMRP's short
	// paths); only when no candidate is stable enough does raw lifetime
	// decide. This matches the paper's goal of maximizing mesh lifetime
	// "without greatly affecting the redundancy and path lengths".
	MinLifetimeS float64
	// UsePruning selects MRMM behaviour; false degrades to plain ODMRP
	// (first-copy upstream selection) for the ablation benchmark.
	UsePruning bool
	// DataBytes is the payload size of mesh data packets on the air.
	DataBytes int
}

// DefaultConfig returns parameters tuned for the paper's 50-robot network.
func DefaultConfig(linkRange float64) Config {
	return Config{
		MaxHops:           8,
		FGTimeoutS:        400,
		ReplyDelayMinS:    0.02,
		ReplyDelayMaxS:    0.05,
		ForwardJitterMaxS: 0.01,
		LinkRangeM:        linkRange,
		MinLifetimeS:      120,
		UsePruning:        true,
		DataBytes:         network.IPHeaderBytes + network.UDPHeaderBytes + 24,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.MaxHops <= 0:
		return fmt.Errorf("mrmm: MaxHops must be positive")
	case c.FGTimeoutS <= 0:
		return fmt.Errorf("mrmm: FGTimeoutS must be positive")
	case c.ReplyDelayMinS < 0 || c.ReplyDelayMaxS < c.ReplyDelayMinS:
		return fmt.Errorf("mrmm: bad reply delay range")
	case c.ForwardJitterMaxS < 0:
		return fmt.Errorf("mrmm: negative forward jitter")
	case c.LinkRangeM <= 0:
		return fmt.Errorf("mrmm: LinkRangeM must be positive")
	case c.MinLifetimeS < 0:
		return fmt.Errorf("mrmm: MinLifetimeS must be non-negative")
	case c.DataBytes <= 0:
		return fmt.Errorf("mrmm: DataBytes must be positive")
	}
	return nil
}

// Stats counts per-node protocol activity.
type Stats struct {
	QueriesSent     int // JOIN QUERY (re)broadcasts
	RepliesSent     int // JOIN REPLY broadcasts
	DataSent        int // data (re)broadcasts
	DataDelivered   int // data packets delivered to the member application
	BecameForwarder int // times this node (re)entered the forwarding group
}

// DataHandler consumes mesh data delivered to a group member.
type DataHandler func(d Data, rssiDBm float64)

// candidate is one overheard upstream option for a (source, seq) query.
type candidate struct {
	prevHop  int
	hops     int
	lifetime float64
	order    int // arrival order, for the ODMRP (no-pruning) policy
}

// queryState tracks the best upstream per query round.
type queryState struct {
	seq        int
	candidates []candidate
	replied    bool
}

// Protocol is one node's MRMM instance.
type Protocol struct {
	id  int
	sim *sim.Simulator
	nic *network.NIC
	cfg Config
	rng *sim.RNG
	// frames holds the packets p sends while they are on the air.
	frames *Frames

	mobility func() MobilityInfo
	onData   DataHandler

	member  bool
	seq     int // source-side query sequence counter
	dataSeq int // source-side data sequence counter
	fgUntil sim.Time

	queries  map[int]*queryState // per source
	seenData map[int]int         // highest seq delivered per source
	upstream map[int]int         // chosen upstream per source

	// handlers are p's NIC handlers, bound to p on its first Init and
	// registered again by every later one.
	handlers struct{ query, reply, data network.Handler }
	// tasks is every task p has made; free holds those not scheduled.
	tasks, free []*task

	stats Stats
}

// New attaches an MRMM instance to the NIC. frames must be storage for
// the NIC's medium. mobility supplies this node's own mobility knowledge
// for control packets.
func New(s *sim.Simulator, nic *network.NIC, cfg Config, rng *sim.RNG, frames *Frames,
	mobility func() MobilityInfo) (*Protocol, error) {
	p := new(Protocol)
	if err := p.Init(s, nic, cfg, rng, frames, mobility); err != nil {
		return nil, err
	}
	return p, nil
}

// Init rewinds p, in place, to the instance New returns and attaches it to
// the NIC. It keeps p's maps (cleared), per-source query states (rewound
// to "no round heard", which a round's first query copy treats exactly
// like a missing state) and task pool, so re-initialising a protocol
// allocates nothing. Tasks p scheduled before must be gone with the
// simulator they were scheduled on (sim.Simulator.Reset). A Protocol must
// not be copied once initialised.
func (p *Protocol) Init(s *sim.Simulator, nic *network.NIC, cfg Config, rng *sim.RNG, frames *Frames,
	mobility func() MobilityInfo) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	queries, seenData, upstream, handlers := p.queries, p.seenData, p.upstream, p.handlers
	if queries == nil {
		queries, seenData, upstream = make(map[int]*queryState), make(map[int]int), make(map[int]int)
		handlers.query, handlers.reply, handlers.data = p.onJoinQuery, p.onJoinReply, p.onDataFrame
	}
	for _, st := range queries {
		*st = queryState{candidates: st.candidates[:0]}
	}
	clear(seenData)
	clear(upstream)
	for _, k := range p.tasks {
		*k = task{run: k.run}
	}
	*p = Protocol{
		tasks:    p.tasks,
		free:     append(p.free[:0], p.tasks...),
		id:       nic.ID(),
		sim:      s,
		nic:      nic,
		cfg:      cfg,
		rng:      rng,
		frames:   frames,
		mobility: mobility,
		queries:  queries,
		seenData: seenData,
		upstream: upstream,
		handlers: handlers,
	}
	nic.Handle(network.KindJoinQuery, handlers.query)
	nic.Handle(network.KindJoinReply, handlers.reply)
	nic.Handle(network.KindSync, handlers.data)
	return nil
}

// SetMember marks this node as a multicast group member (all CoCoA robots
// are members of the SYNC group).
func (p *Protocol) SetMember(m bool) { p.member = m }

// OnData registers the member application's data handler.
func (p *Protocol) OnData(h DataHandler) { p.onData = h }

// InForwardingGroup reports whether this node currently forwards data.
func (p *Protocol) InForwardingGroup() bool { return p.sim.Now() < p.fgUntil }

// Stats returns a copy of this node's counters.
func (p *Protocol) Stats() Stats { return p.stats }

// SendQuery floods a fresh JOIN QUERY from this node as the multicast
// source, starting a mesh-refresh round.
func (p *Protocol) SendQuery() error {
	p.seq++
	q := p.frames.queries.Next(p.frames.med)
	*q = JoinQuery{Source: p.id, Seq: p.seq, Hops: 0, PrevHop: p.id, Info: p.mobility()}
	p.stats.QueriesSent++
	return p.nic.Send(network.KindJoinQuery, joinQueryBytes, q)
}

// SendData multicasts a payload from this node over the mesh.
func (p *Protocol) SendData(payload any) error {
	p.dataSeq++
	d := p.frames.data.Next(p.frames.med)
	*d = Data{Source: p.id, Seq: p.dataSeq, Payload: payload}
	p.seenData[p.id] = p.dataSeq
	p.stats.DataSent++
	return p.nic.Send(network.KindSync, p.cfg.DataBytes, d)
}

// onJoinQuery handles a JOIN QUERY copy: records the upstream candidate,
// rebroadcasts the first copy, and schedules the member's JOIN REPLY.
func (p *Protocol) onJoinQuery(f mac.Frame, _ float64) {
	qp, ok := f.Payload.(*JoinQuery)
	if !ok || qp.Source == p.id {
		return
	}
	q := *qp
	st := p.queries[q.Source]
	fresh := st == nil || st.seq < q.Seq
	if fresh {
		// One queryState per source, recycled across rounds: a new round
		// rewinds the candidate list in place. Pending sendReply closures
		// from the superseded round carry their own seq and bail out when
		// it no longer matches (the recycled-state equivalent of the old
		// pointer-replacement check).
		if st == nil {
			st = &queryState{}
			p.queries[q.Source] = st
		}
		st.seq = q.Seq
		st.candidates = st.candidates[:0]
		st.replied = false
	} else if st.seq > q.Seq {
		return // stale round
	}

	st.candidates = append(st.candidates, candidate{
		prevHop:  q.PrevHop,
		hops:     q.Hops,
		lifetime: p.linkLifetime(q.Info),
		order:    len(st.candidates),
	})

	if !fresh {
		return // duplicate: candidate recorded, no rebroadcast
	}

	// Rebroadcast the query with our own mobility knowledge.
	if q.Hops+1 < p.cfg.MaxHops {
		fwd := q
		fwd.Hops++
		fwd.PrevHop = p.id
		fwd.Info = p.mobility()
		k := p.newTask(taskQuery)
		k.query = fwd
		p.sim.Schedule(p.rng.Uniform(0, float64(p.cfg.ForwardJitterMaxS)), k.run)
	}

	// Members answer after a jitter window that lets duplicates arrive,
	// so upstream selection can compare candidates.
	if p.member {
		delay := p.rng.Uniform(float64(p.cfg.ReplyDelayMinS), float64(p.cfg.ReplyDelayMaxS))
		k := p.newTask(taskReply)
		k.st, k.source, k.seq = st, q.Source, q.Seq
		p.sim.Schedule(delay, k.run)
	}
}

// sendReply emits this node's JOIN REPLY for the round identified by seq,
// choosing the upstream by predicted link lifetime (MRMM) or arrival order
// (ODMRP).
func (p *Protocol) sendReply(source int, st *queryState, seq int) {
	if st.replied || len(st.candidates) == 0 || st.seq != seq {
		return // already answered, or a newer round superseded this one
	}
	st.replied = true
	best := p.chooseUpstream(st.candidates)
	p.upstream[source] = best.prevHop
	r := p.frames.replies.Next(p.frames.med)
	*r = JoinReply{Member: p.id, Source: source, Seq: st.seq, NextHop: best.prevHop}
	if p.nic.Send(network.KindJoinReply, joinReplyBytes, r) == nil {
		p.stats.RepliesSent++
	}
}

// chooseUpstream implements the MRMM pruning policy: among candidates
// whose predicted link lifetime meets the stability floor, pick the
// fewest hops (then the longest lifetime); if no candidate is stable,
// fall back to the longest-lived one. Without pruning (plain ODMRP) the
// first-received copy wins.
func (p *Protocol) chooseUpstream(cands []candidate) candidate {
	if !p.cfg.UsePruning {
		best := cands[0]
		for _, c := range cands[1:] {
			if c.order < best.order {
				best = c
			}
		}
		return best
	}

	stableBetter := func(a, b candidate) bool {
		if a.hops != b.hops {
			return a.hops < b.hops
		}
		if a.lifetime != b.lifetime {
			return a.lifetime > b.lifetime
		}
		return a.order < b.order
	}

	var havestable bool
	var best candidate
	for _, c := range cands {
		if c.lifetime < p.cfg.MinLifetimeS {
			continue
		}
		if !havestable || stableBetter(c, best) {
			best, havestable = c, true
		}
	}
	if havestable {
		return best
	}
	// No candidate survives long enough: take the longest-lived.
	best = cands[0]
	for _, c := range cands[1:] {
		if c.lifetime > best.lifetime ||
			(c.lifetime == best.lifetime && c.hops < best.hops) {
			best = c
		}
	}
	return best
}

// onJoinReply handles a JOIN REPLY: if it names this node as the next hop,
// the node joins the forwarding group and propagates a reply of its own
// toward the source.
func (p *Protocol) onJoinReply(f mac.Frame, _ float64) {
	rp, ok := f.Payload.(*JoinReply)
	if !ok || rp.NextHop != p.id || rp.Source == p.id {
		return
	}
	r := *rp
	if !p.InForwardingGroup() {
		p.stats.BecameForwarder++
	}
	p.fgUntil = p.sim.Now() + p.cfg.FGTimeoutS

	// Propagate mesh activation toward the source (once per round).
	st := p.queries[r.Source]
	if st == nil || st.seq != r.Seq || st.replied {
		return
	}
	p.sendReply(r.Source, st, r.Seq)
}

// onDataFrame handles mesh data: deliver to the member application and
// rebroadcast if this node is part of the forwarding group.
func (p *Protocol) onDataFrame(f mac.Frame, rssi float64) {
	dp, ok := f.Payload.(*Data)
	if !ok || dp.Source == p.id {
		return
	}
	d := *dp
	if last, seen := p.seenData[d.Source]; seen && last >= d.Seq {
		return // duplicate
	}
	p.seenData[d.Source] = d.Seq

	if p.member {
		p.stats.DataDelivered++
		if p.onData != nil {
			p.onData(d, rssi)
		}
	}
	if p.InForwardingGroup() {
		k := p.newTask(taskData)
		k.data = d
		p.sim.Schedule(p.rng.Uniform(0, float64(p.cfg.ForwardJitterMaxS)), k.run)
	}
}

// taskKind selects what a scheduled task does.
type taskKind uint8

const (
	taskQuery taskKind = iota + 1 // rebroadcast query
	taskData                      // rebroadcast data
	taskReply                     // reply to round (source, seq) of st
)

// task is one scheduled rebroadcast or JOIN REPLY. A protocol pools its
// tasks with each one's event closure bound once (newTask), so scheduling
// allocates nothing once the pool holds the most tasks ever pending at
// once.
type task struct {
	run  func()
	kind taskKind

	query       JoinQuery
	data        Data
	st          *queryState
	source, seq int
}

// newTask returns a pooled task of the given kind.
func (p *Protocol) newTask(kind taskKind) *task {
	var k *task
	if n := len(p.free); n > 0 {
		k = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		k = new(task)
		k.run = func() { p.fire(k) }
		p.tasks = append(p.tasks, k)
	}
	k.kind = kind
	return k
}

// fire performs task k, then returns it to the pool.
func (p *Protocol) fire(k *task) {
	switch k.kind {
	case taskQuery:
		q := p.frames.queries.Next(p.frames.med)
		*q = k.query
		if p.nic.Send(network.KindJoinQuery, joinQueryBytes, q) == nil {
			p.stats.QueriesSent++
		}
	case taskData:
		d := p.frames.data.Next(p.frames.med)
		*d = k.data
		if p.nic.Send(network.KindSync, p.cfg.DataBytes, d) == nil {
			p.stats.DataSent++
		}
	case taskReply:
		p.sendReply(k.source, k.st, k.seq)
	}
	*k = task{run: k.run}
	p.free = append(p.free, k)
}

// linkLifetime predicts how long the radio link between this node and a
// neighbor with the given mobility knowledge will last, assuming both keep
// their current velocities (a resting robot contributes zero velocity for
// its rest duration, which is what makes resting robots attractive mesh
// members — the paper's d_rest knowledge).
func (p *Protocol) linkLifetime(other MobilityInfo) float64 {
	self := p.mobility()
	rel := other.Pos.Sub(self.Pos)
	vel := other.Vel.Sub(self.Vel)
	r := p.cfg.LinkRangeM

	dist := rel.Len()
	if dist > r {
		return 0
	}
	speed2 := vel.Dot(vel)
	if speed2 < 1e-12 {
		return math.Inf(1)
	}
	// Solve |rel + vel*t| = r for the positive root.
	b := rel.Dot(vel)
	c := rel.Dot(rel) - r*r
	disc := b*b - speed2*c
	if disc < 0 {
		return 0
	}
	t := (-b + math.Sqrt(disc)) / speed2
	if t < 0 {
		return 0
	}
	return t
}
