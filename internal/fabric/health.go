// Per-link failure detection for the fabric.
//
// The health monitor probes every leaf<->spine link on a fixed virtual-time
// cadence: each tick, every leaf emits one FlagProbe control frame out its
// uplink toward the spine, and the spine echoes it back purely in the data
// plane (a crashed spine controller still answers — link health and control
// health are different failure domains). A link whose probe goes unanswered
// for MissThreshold consecutive ticks is declared dead: the fabric's routing
// avoids it from the next frame on, and subscribers (the coherent cache,
// the soak's event ring) are notified. The first reply after death declares
// the link alive again; subscribers are notified first and the routes are
// restored RestoreDelay later, giving a subscriber a synchronization window
// (e.g. scrubbing a stale home replica through its controller) before traffic
// crosses the healed link again.
//
// Detection latency — MissThreshold*ProbeInterval — is the staleness
// deadline of the degraded-mode coherence protocol: it bounds how long the
// fabric can route into a dead link before the monitor notices.
package fabric

import (
	"time"

	"activermt/internal/netsim"
	"activermt/internal/packet"
)

// The monitor's timers: a 5 ms probe cadence, so a dead link is declared
// within MissThreshold × ProbeInterval = 15 ms, and an 8 ms re-trust delay.
// Fast detection with slow re-trust loses fewer reads under the soak's link
// faults: across the 5-minute soak's seeds 1–20 these timers lost 1 969
// reads, against 2 768 with the 10 ms / 2 ms pair they replace
// (docs/soak.md).
const (
	ProbeInterval = 5 * time.Millisecond
	MissThreshold = 3
	RestoreDelay  = 8 * time.Millisecond
)

// LinkEvent is one health-state transition of a leaf<->spine link.
type LinkEvent struct {
	Leaf, Spine int
	Down        bool
}

// Health is the fabric's link-health monitor, and the netsim.Timer of its
// own continuations.
type Health struct {
	F *Fabric

	links   []*linkHealth // leaf-major: links[leaf*spines+spine]
	byMAC   map[packet.MAC]int
	subs    []func(LinkEvent)
	started bool
	stopped bool
	seq     uint32
	confirm map[uint32]confirmation // probe token -> the Confirm waiting on its echo

	// Counters.
	ProbesSent    uint64
	FlapsObserved uint64 // down transitions declared
	Recoveries    uint64 // up transitions declared
}

type linkHealth struct {
	leaf, spine int
	outstanding bool
	misses      int
	down        bool
}

type confirmation struct {
	t   netsim.Timer
	arg uint64
}

// answered is the bit a Confirm sets in its arg when the probe was echoed.
const answered = 1

// NewHealth builds a monitor over the fabric; the fabric controller's
// link-flap telemetry reads its FlapsObserved.
func NewHealth(f *Fabric) *Health {
	h := &Health{
		F:       f,
		byMAC:   make(map[packet.MAC]int),
		confirm: make(map[uint32]confirmation),
	}
	for i := range f.Leaves {
		for j, s := range f.Spines {
			h.links = append(h.links, &linkHealth{leaf: i, spine: j})
			h.byMAC[s.MAC] = j
		}
	}
	f.health = h
	return h
}

// Subscribe registers a link-event observer. Down events fire after the
// fabric has rerouted; up events fire before the routes are restored.
func (h *Health) Subscribe(fn func(LinkEvent)) { h.subs = append(h.subs, fn) }

// Start arms the probe loop and the per-leaf reply sinks.
func (h *Health) Start() {
	if h.started {
		return
	}
	h.started = true
	for i, l := range h.F.Leaves {
		leaf := i
		l.Switch.SetProbeSink(func(f *packet.Frame, _ *netsim.Port) {
			h.onReply(leaf, f)
		})
	}
	h.tick()
}

// Stop halts the probe loop (pending engine events drain harmlessly).
func (h *Health) Stop() { h.stopped = true }

// LinkDown reports the monitor's verdict for one link.
func (h *Health) LinkDown(leaf, spine int) bool {
	return h.link(leaf, spine).down
}

func (h *Health) link(leaf, spine int) *linkHealth {
	return h.links[leaf*len(h.F.Spines)+spine]
}

// Fire implements netsim.Timer for the monitor's own continuations. An odd
// arg times out the Confirm of probe token arg>>2. One with bit 1 set
// restores the routes of link arg>>2, unless it died again in the window.
// Arg 0 runs the next probe round.
func (h *Health) Fire(arg uint64) {
	switch {
	case arg&1 != 0:
		h.report(uint32(arg>>2), 0)
	case arg&2 != 0:
		if lh := h.links[arg>>2]; !lh.down {
			h.F.SetLinkState(lh.leaf, lh.spine, false)
		}
	default:
		h.tick()
	}
}

// tick sends one probe per link and scores the previous round: a probe
// still outstanding is a miss, and MissThreshold consecutive misses kill
// the link.
func (h *Health) tick() {
	if h.stopped {
		return
	}
	for _, lh := range h.links {
		if lh.outstanding {
			lh.misses++
			if !lh.down && lh.misses >= MissThreshold {
				h.declareDown(lh)
			}
		}
		leaf := h.F.Leaves[lh.leaf]
		spine := h.F.Spines[lh.spine]
		h.seq++
		if err := leaf.Switch.SendProbe(leaf.up[lh.spine], spine.MAC, h.seq); err == nil {
			lh.outstanding = true
			h.ProbesSent++
		}
	}
	h.F.Eng.ScheduleTimer(ProbeInterval, h, 0)
}

// Confirm sends one immediate probe on a link and fires t with arg, plus the
// answered bit if the probe is echoed within ProbeInterval: a fresh echo that
// the healed link carries traffic now, not just when the probe loop last
// looked. The coherent cache waits for it before it starts the undrain
// countdown that lets traffic cross the link again. A probe that could not
// be sent is unanswered.
func (h *Health) Confirm(leaf, spine int, t netsim.Timer, arg uint64) {
	l := h.F.Leaves[leaf]
	h.seq++
	h.confirm[h.seq] = confirmation{t, arg}
	if l.Switch.SendProbe(l.up[spine], h.F.Spines[spine].MAC, h.seq) == nil {
		h.ProbesSent++
	}
	h.F.Eng.ScheduleTimer(ProbeInterval, h, uint64(h.seq)<<2|1)
}

// report fires the Confirm waiting on probe token, unless its echo or its
// timeout already did.
func (h *Health) report(token uint32, ok uint64) {
	if c, found := h.confirm[token]; found {
		delete(h.confirm, token)
		c.t.Fire(c.arg | ok)
	}
}

// onReply scores a probe echo arriving at a leaf.
func (h *Health) onReply(leaf int, f *packet.Frame) {
	h.report(f.Active.Header.Opaque, answered)
	spine, ok := h.byMAC[f.Eth.Src]
	if !ok {
		return
	}
	lh := h.link(leaf, spine)
	lh.outstanding = false
	lh.misses = 0
	if lh.down {
		h.declareUp(lh)
	}
}

func (h *Health) declareDown(lh *linkHealth) {
	lh.down = true
	h.FlapsObserved++
	h.F.SetLinkState(lh.leaf, lh.spine, true)
	h.notify(LinkEvent{Leaf: lh.leaf, Spine: lh.spine, Down: true})
}

// declareUp notifies the subscribers first, so they sync over paths that do
// not need the restored routes; the routes come back RestoreDelay later.
func (h *Health) declareUp(lh *linkHealth) {
	lh.down = false
	h.Recoveries++
	h.notify(LinkEvent{Leaf: lh.leaf, Spine: lh.spine, Down: false})
	h.F.Eng.ScheduleTimer(RestoreDelay, h, uint64(lh.leaf*len(h.F.Spines)+lh.spine)<<2|2)
}

func (h *Health) notify(ev LinkEvent) {
	for _, fn := range h.subs {
		fn(ev)
	}
}
