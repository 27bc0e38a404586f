package netsim

import (
	"math/rand"
	"time"
)

// Endpoint is anything that can be attached to a port and receive frames.
type Endpoint interface {
	Receive(frame []byte, port *Port)
}

// Port is one end of a full-duplex link. Sends are serialized by the link
// bandwidth (store-and-forward) and delivered after the propagation delay.
//
// Ports double as the injection point for link-level faults (see
// internal/chaos): probabilistic loss, extra delay with jitter (which also
// reorders back-to-back frames), and administrative down/up. All fault state
// defaults to off and costs nothing on the send path while disabled.
type Port struct {
	eng   *Engine
	owner Endpoint
	peer  *Port

	// Num is the port number at its owner (a switch port id or 0 for a
	// host NIC).
	Num int

	delay     time.Duration
	bandwidth float64 // bits per second; 0 = infinite
	busyUntil time.Duration

	// lossRate drops that fraction of transmitted frames (deterministic
	// per-port PRNG); zero by default.
	lossRate float64
	lossRng  *rand.Rand

	// extraDelay/jitter add to the propagation delay: extraDelay always,
	// plus a uniform sample from [0, jitter). Jitter can reorder frames.
	extraDelay time.Duration
	jitter     time.Duration
	jitterRng  *rand.Rand

	// down marks the port administratively down: sends are dropped at the
	// port, and frames still in flight toward it are dropped on delivery.
	// downGen counts down transitions so a down/up flap mid-flight still
	// kills the frames that were on the wire.
	down    bool
	downGen uint64

	// Counters.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	Lost               uint64
	DroppedDown        uint64 // frames dropped because the port was down
}

// Connect wires two endpoints with a full-duplex link. aNum and bNum are the
// port numbers as seen by each owner. bandwidthBps of zero models an
// infinitely fast link.
func Connect(eng *Engine, a Endpoint, aNum int, b Endpoint, bNum int, delay time.Duration, bandwidthBps float64) (*Port, *Port) {
	pa := &Port{eng: eng, owner: a, Num: aNum, delay: delay, bandwidth: bandwidthBps}
	pb := &Port{eng: eng, owner: b, Num: bNum, delay: delay, bandwidth: bandwidthBps}
	pa.peer = pb
	pb.peer = pa
	return pa, pb
}

// SetLoss makes the port drop the given fraction of transmitted frames,
// deterministically from seed. Loss exercises the idempotent retransmission
// paths (Section 4.3: "Packets that fail execution do not generate a
// response ... the client can safely retransmit after a timeout"). A zero
// rate disarms the fault entirely.
func (p *Port) SetLoss(rate float64, seed int64) {
	p.lossRate = rate
	if rate > 0 {
		p.lossRng = rand.New(rand.NewSource(seed))
	} else {
		p.lossRng = nil
	}
}

// SetExtraDelay adds extra propagation delay to every transmitted frame,
// plus a uniform jitter sample from [0, jitter), deterministically from
// seed. Jitter larger than the inter-frame gap reorders deliveries. Zero
// extra and zero jitter disarm the fault.
func (p *Port) SetExtraDelay(extra, jitter time.Duration, seed int64) {
	p.extraDelay = extra
	p.jitter = jitter
	if jitter > 0 {
		p.jitterRng = rand.New(rand.NewSource(seed))
	} else {
		p.jitterRng = nil
	}
}

// SetDown takes the port down (or back up). While down, frames sent from
// the port are dropped immediately and frames already in flight toward it
// are dropped at delivery time; after re-up, new sends resume normally.
func (p *Port) SetDown(down bool) {
	if down && !p.down {
		p.downGen++
	}
	p.down = down
}

// Down reports whether the port is administratively down.
func (p *Port) Down() bool { return p.down }

// DownTransitions returns how many times the port has gone down — the flap
// count a link-flap injector or a health monitor can audit against.
func (p *Port) DownTransitions() uint64 { return p.downGen }

// Send transmits a copy of frame toward the peer endpoint; the caller keeps
// its buffer. The receiver gets engine-owned bytes that no one writes again.
func (p *Port) Send(frame []byte) { p.transmit(p.eng.own(frame)) }

// transmit puts an engine-owned frame on the link.
func (p *Port) transmit(frame []byte) {
	p.TxFrames++
	p.TxBytes += uint64(len(frame))
	if p.down {
		p.DroppedDown++
		return
	}
	if p.lossRate > 0 && p.lossRng.Float64() < p.lossRate {
		p.Lost++
		return
	}
	start := p.eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	var tx time.Duration
	if p.bandwidth > 0 {
		tx = time.Duration(float64(len(frame)*8) / p.bandwidth * float64(time.Second))
	}
	p.busyUntil = start + tx
	deliverAt := p.busyUntil + p.delay
	if p.extraDelay > 0 || p.jitter > 0 {
		deliverAt += p.extraDelay
		if p.jitter > 0 {
			deliverAt += time.Duration(p.jitterRng.Int63n(int64(p.jitter)))
		}
	}
	p.eng.enqueue(deliverAt, eventDeliver, payload{port: p.peer, frame: frame, gen: p.peer.downGen})
}

// SendAfter is Send after delay (clamped to now for non-positive delays),
// without a closure; the copy is taken now. Pipeline and service latencies in
// front of a link use it.
func (p *Port) SendAfter(delay time.Duration, frame []byte) {
	if delay < 0 {
		delay = 0
	}
	p.eng.enqueue(p.eng.now+delay, eventSend, payload{port: p, frame: p.eng.own(frame)})
}

// deliver hands an arriving frame to the port's owner, unless the port went
// down (even briefly: gen is its down-generation at send time) while the
// frame was on the wire.
func (p *Port) deliver(frame []byte, gen uint64) {
	if p.down || p.downGen != gen {
		p.DroppedDown++
		return
	}
	p.RxFrames++
	p.RxBytes += uint64(len(frame))
	p.owner.Receive(frame, p)
}

// Peer returns the other end of the link.
func (p *Port) Peer() *Port { return p.peer }
