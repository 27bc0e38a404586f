// Per-link failure detection for the fabric.
//
// The health monitor probes every leaf<->spine link on a fixed virtual-time
// cadence: each tick, every leaf emits one FlagProbe control frame out its
// uplink toward the spine, and the spine echoes it back purely in the data
// plane (a crashed spine controller still answers — link health and control
// health are different failure domains). A link whose probe goes unanswered
// for MissThreshold consecutive ticks is declared dead: the fabric repoints
// every spine-hashed route around it, and subscribers (the coherent cache,
// the fabric controller) are notified. The first reply after death declares
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

// LinkEvent is one health-state transition of a leaf<->spine link.
type LinkEvent struct {
	Leaf, Spine int
	Down        bool
}

// Health is the fabric's link-health monitor.
type Health struct {
	F *Fabric

	// ProbeInterval is the per-link probe cadence (default 5ms).
	ProbeInterval time.Duration
	// MissThreshold is how many consecutive unanswered probes declare a
	// link dead (default 3).
	MissThreshold int
	// RestoreDelay is how long after a link is declared alive its routes
	// are restored — the subscribers' synchronization window (default 8ms).
	RestoreDelay time.Duration

	links   []*linkHealth // leaf-major: links[leaf*spines+spine]
	byMAC   map[packet.MAC]int
	subs    []func(LinkEvent)
	started bool
	stopped bool
	seq     uint32
	confirm map[uint32]func(bool)

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

// NewHealth builds a monitor over the fabric with default thresholds: a 5 ms
// probe cadence, so a dead link is declared within 3 × 5 = 15 ms, and an
// 8 ms re-trust delay. Fast detection with slow re-trust loses fewer reads
// under the soak's link faults: across the 5-minute soak's seeds 1–20 these
// timers lost 1 969 reads, against 2 768 with the 10 ms / 2 ms pair they
// replace (docs/soak.md).
func NewHealth(f *Fabric) *Health {
	h := &Health{
		F:             f,
		ProbeInterval: 5 * time.Millisecond,
		MissThreshold: 3,
		RestoreDelay:  8 * time.Millisecond,
		byMAC:         make(map[packet.MAC]int),
		confirm:       make(map[uint32]func(bool)),
	}
	for i := range f.Leaves {
		for j, s := range f.Spines {
			h.links = append(h.links, &linkHealth{leaf: i, spine: j})
			h.byMAC[s.MAC] = j
		}
	}
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
			if !lh.down && lh.misses >= h.MissThreshold {
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
	h.F.Eng.Schedule(h.ProbeInterval, h.tick)
}

// Confirm sends one immediate probe on a link and reports whether it is
// answered within ProbeInterval: a fresh echo that the healed link carries
// traffic now, not just when the probe loop last looked. The coherent cache
// waits for it before it starts the undrain countdown that lets traffic
// cross the link again.
func (h *Health) Confirm(leaf, spine int, fn func(ok bool)) {
	if leaf < 0 || leaf >= len(h.F.Leaves) || spine < 0 || spine >= len(h.F.Spines) {
		fn(false)
		return
	}
	l := h.F.Leaves[leaf]
	s := h.F.Spines[spine]
	h.seq++
	token := h.seq
	h.confirm[token] = fn
	if err := l.Switch.SendProbe(l.up[spine], s.MAC, token); err != nil {
		delete(h.confirm, token)
		fn(false)
		return
	}
	h.ProbesSent++
	h.F.Eng.Schedule(h.ProbeInterval, func() {
		if cb, ok := h.confirm[token]; ok {
			delete(h.confirm, token)
			cb(false)
		}
	})
}

// onReply scores a probe echo arriving at a leaf.
func (h *Health) onReply(leaf int, f *packet.Frame) {
	if cb, ok := h.confirm[f.Active.Header.Opaque]; ok {
		delete(h.confirm, f.Active.Header.Opaque)
		cb(true)
	}
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

func (h *Health) declareUp(lh *linkHealth) {
	lh.down = false
	h.Recoveries++
	// Subscribers sync first (over paths that do not need the restored
	// routes); the routes come back RestoreDelay later — unless the link
	// died again in the window.
	h.notify(LinkEvent{Leaf: lh.leaf, Spine: lh.spine, Down: false})
	leaf, spine := lh.leaf, lh.spine
	h.F.Eng.Schedule(h.RestoreDelay, func() {
		if !h.link(leaf, spine).down {
			h.F.SetLinkState(leaf, spine, false)
		}
	})
}

func (h *Health) notify(ev LinkEvent) {
	for _, fn := range h.subs {
		fn(ev)
	}
}
