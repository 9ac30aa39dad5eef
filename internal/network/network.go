// Package network implements the per-robot network interface card (NIC):
// the glue between the MAC medium, the energy meter, and the protocol
// layers above (beaconing, MRMM, CoCoA coordination).
//
// The NIC owns the radio power state. CoCoA's coordination layer drives
// Sleep and Wake; the MAC drives the transient Tx/Rx states; the energy
// meter observes every change. A sleeping NIC neither receives nor sends.
package network

import (
	"fmt"

	"cocoa/internal/energy"
	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/mobility"
	"cocoa/internal/sim"
	"cocoa/internal/telemetry"
)

// Frame kinds used across the CoCoA stack. They share one registry so the
// NIC can dispatch received frames to the right protocol handler.
const (
	KindBeacon    = 1 // RF localization beacon (equipped robots)
	KindJoinQuery = 2 // MRMM mesh construction flood
	KindJoinReply = 3 // MRMM forwarding-group activation
	KindSync      = 4 // CoCoA SYNC message carried over the MRMM mesh
	KindData      = 5 // application payload
	KindHello     = 6 // geounicast neighbor discovery
	KindUnicast   = 7 // geounicast data packet (greedy geographic forwarding)
	KindAck       = 8 // geounicast hop-by-hop acknowledgement
)

// Sizes in bytes of the paper's packets: each beacon carries IP and UDP
// headers (20 bytes each) plus the sender's coordinates.
const (
	IPHeaderBytes  = 20
	UDPHeaderBytes = 20
	CoordBytes     = 16 // two float64 coordinates
	// BeaconBytes is the on-air UDP broadcast beacon payload size.
	BeaconBytes = IPHeaderBytes + UDPHeaderBytes + CoordBytes
)

// Mode is the NIC's commanded power mode, orthogonal to the transient
// Tx/Rx activity driven by the MAC.
type Mode int

// NIC power modes.
const (
	ModeOff Mode = iota + 1
	ModeSleep
	ModeAwake
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSleep:
		return "sleep"
	case ModeAwake:
		return "awake"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Handler consumes a delivered frame along with its received signal
// strength in dBm — the input to the RF localization algorithm.
type Handler func(f mac.Frame, rssiDBm float64)

// FaultFilter intercepts frames after MAC decode and before handler
// dispatch: the fault-injection layer drops frames (bursty link loss) and
// perturbs the reported RSSI (outlier spikes) here, so every protocol
// above the NIC — beaconing, MRMM, SYNC, geographic unicast — sees the
// same unreliable channel. It returns the (possibly perturbed) RSSI and
// whether the frame is lost.
type FaultFilter interface {
	Incoming(kind int, rssiDBm float64) (rssi float64, drop bool)
}

// NIC is one robot's radio interface.
type NIC struct {
	id     int
	sim    *sim.Simulator
	med    *mac.Medium
	meter  energy.Meter
	motion func() (geom.Vec2, mobility.Leg)

	mode     Mode
	txDepth  int
	rxDepth  int
	handlers [len(dropKindNames)]Handler // by frame kind
	faults   FaultFilter

	sent     int // frames handed to the MAC
	received int // frames delivered up the stack
	sendErrs int // sends rejected because the radio was not awake
	// faultDrops counts fault-filter drops by frame kind (index 0: unknown
	// kinds), showing *what* a lossy channel ate.
	faultDrops [len(dropKindNames)]int
}

// dropKindNames suffixes the network.fault_drops.* series, indexed like
// NIC.faultDrops.
var dropKindNames = [...]string{"other", "beacon", "join_query", "join_reply",
	"sync", "data", "hello", "unicast", "ack"}

var _ mac.Endpoint = (*NIC)(nil)

// NewNIC creates a NIC for node id, attaches it to the medium, and starts
// it awake/idle at the simulator's current time. motion must return the
// robot's true position and the motion leg it is on, as
// mobility.Waypoint.Motion does (the MAC needs them for propagation; see
// mac.Endpoint for when the MAC asks again).
func NewNIC(s *sim.Simulator, med *mac.Medium, params energy.Params, id int, motion func() (geom.Vec2, mobility.Leg)) *NIC {
	n := new(NIC)
	n.Init(s, med, params, id, motion)
	return n
}

// Init rewinds n, in place, to the NIC NewNIC returns and attaches it to
// the medium: no handlers, no fault filter, zero counts, a fresh meter.
func (n *NIC) Init(s *sim.Simulator, med *mac.Medium, params energy.Params, id int, motion func() (geom.Vec2, mobility.Leg)) {
	*n = NIC{
		id:     id,
		sim:    s,
		med:    med,
		motion: motion,
		mode:   ModeAwake,
	}
	n.meter.Init(params, s.Now(), energy.Idle)
	med.Attach(id, n)
}

// ID returns the node ID.
func (n *NIC) ID() int { return n.id }

// Mode returns the commanded power mode.
func (n *NIC) Mode() Mode { return n.mode }

// Meter exposes the NIC's energy ledger.
func (n *NIC) Meter() *energy.Meter { return &n.meter }

// Handle registers the protocol handler for a frame kind (one of the Kind
// constants), replacing any previous handler.
func (n *NIC) Handle(kind int, h Handler) { n.handlers[kind] = h }

// SetFaultFilter installs the receive-path fault injector; nil (the
// default) delivers every decoded frame untouched. The energy meter still
// bills the reception of a fault-dropped frame: the radio spent the Rx
// power before the corrupted payload failed its checksum.
func (n *NIC) SetFaultFilter(f FaultFilter) { n.faults = f }

// FaultDrops reports frames eaten by the fault filter after MAC decode.
func (n *NIC) FaultDrops() (total int) {
	for _, d := range n.faultDrops {
		total += d
	}
	return total
}

// Counts is a value copy of NICs' network.* run counts: one NIC's
// (NIC.Counts), or the sum of several (Add). It stays publishable after
// the NICs are re-initialised for another run.
type Counts struct {
	sent, received, sendErrs int
	faultDrops               [len(dropKindNames)]int
	// filtered is set when a counted NIC had a fault filter installed:
	// only then is the per-kind fault-drop breakdown published.
	filtered bool
}

// Counts returns the NIC's run counts.
func (n *NIC) Counts() Counts {
	return Counts{n.sent, n.received, n.sendErrs, n.faultDrops, n.faults != nil}
}

// Add adds o's counts to c.
func (c *Counts) Add(o Counts) {
	c.sent += o.sent
	c.received += o.received
	c.sendErrs += o.sendErrs
	for k, d := range o.faultDrops {
		c.faultDrops[k] += d
	}
	c.filtered = c.filtered || o.filtered
}

// Publish adds the counts to reg (network.*).
func (c *Counts) Publish(reg *telemetry.Registry) {
	total := 0
	for _, d := range c.faultDrops {
		total += d
	}
	reg.Add("network.sent", c.sent)
	reg.Add("network.delivered", c.received)
	reg.Add("network.send_errors", c.sendErrs)
	reg.Add("network.fault_drops", total)
	if c.filtered {
		for k, d := range c.faultDrops {
			reg.Add("network.fault_drops."+dropKindNames[k], d)
		}
	}
}

// Sleep puts the radio into sleep mode. Frames arriving while asleep are
// lost; Send fails.
func (n *NIC) Sleep() { n.setMode(ModeSleep) }

// Wake returns the radio to awake/idle.
func (n *NIC) Wake() { n.setMode(ModeAwake) }

// PowerOff turns the card off entirely.
func (n *NIC) PowerOff() { n.setMode(ModeOff) }

func (n *NIC) setMode(m Mode) {
	if n.mode == m {
		return
	}
	n.mode = m
	n.updateMeter()
}

// Send broadcasts a frame of the given kind and payload size. It fails when
// the radio is not awake: the coordination layer must wake the radio first.
func (n *NIC) Send(kind, payloadBytes int, payload any) error {
	if n.mode != ModeAwake {
		n.sendErrs++
		return fmt.Errorf("nic %d: send while %v", n.id, n.mode)
	}
	n.sent++
	return n.med.Send(n.id, mac.Frame{Kind: kind, Bytes: payloadBytes, Payload: payload})
}

// Motion implements mac.Endpoint.
func (n *NIC) Motion() (geom.Vec2, mobility.Leg) { return n.motion() }

// Listening implements mac.Endpoint: awake and not transmitting. Multiple
// concurrent receptions are allowed (that is how collisions happen).
func (n *NIC) Listening() bool { return n.mode == ModeAwake && n.txDepth == 0 }

// BeginTx implements mac.Endpoint.
func (n *NIC) BeginTx() {
	n.txDepth++
	n.updateMeter()
}

// EndTx implements mac.Endpoint.
func (n *NIC) EndTx() {
	n.txDepth--
	n.updateMeter()
}

// BeginRx implements mac.Endpoint.
func (n *NIC) BeginRx() {
	n.rxDepth++
	n.updateMeter()
}

// EndRx implements mac.Endpoint.
func (n *NIC) EndRx() {
	n.rxDepth--
	n.updateMeter()
}

// Deliver implements mac.Endpoint: dispatch to the registered handler,
// after the fault filter (when installed) has had its say.
func (n *NIC) Deliver(f mac.Frame, rssiDBm float64) {
	if n.faults != nil {
		rssi, drop := n.faults.Incoming(f.Kind, rssiDBm)
		if drop {
			k := f.Kind
			if k < 0 || k >= len(n.faultDrops) {
				k = 0
			}
			n.faultDrops[k]++
			return
		}
		rssiDBm = rssi
	}
	n.received++
	if f.Kind >= 0 && f.Kind < len(n.handlers) && n.handlers[f.Kind] != nil {
		n.handlers[f.Kind](f, rssiDBm)
	}
}

// updateMeter recomputes the energy state from (mode, txDepth, rxDepth).
func (n *NIC) updateMeter() {
	now := n.sim.Now()
	switch {
	case n.mode == ModeOff:
		n.meter.SetState(now, energy.Off)
	case n.mode == ModeSleep:
		n.meter.SetState(now, energy.Sleep)
	case n.txDepth > 0:
		n.meter.SetState(now, energy.Tx)
	case n.rxDepth > 0:
		n.meter.SetState(now, energy.Rx)
	default:
		n.meter.SetState(now, energy.Idle)
	}
}
