package soak

import "activermt/internal/policy"

// The soak's closed control loop. In adaptive mode every node carries its
// own policy.Adaptive engine; once per epoch the driver (never an engine
// callback — control actions step the engine internally) takes that node's
// Observation (Node.Observe, plus the fabric's link flaps), asks the engine to
// decide, and pushes the decisions back into the node (its controller and
// guard). Fabric probe timers follow leaf 0's decisions. When a
// node's engine calls for migration, a defragmentation pass is queued on
// that node. Static mode keeps the map nil and this file inert: the run is
// bit-identical to a policy-free soak.

func (h *harness) applyPolicy() {
	if h.engines == nil {
		return
	}
	for i, n := range h.f.Nodes() {
		eng := h.engines[n.Name]
		if eng == nil {
			eng = &policy.Adaptive{}
			h.engines[n.Name] = eng
		}
		obs := n.Observe()
		obs.LinkFlaps = h.hm.FlapsObserved // the fabric's signal, not one node's
		d := eng.Decide(obs)
		n.ApplyPolicy(d)
		if i == 0 {
			h.hm.ApplyTimers(d.Fabric)
		}
		if eng.DefragWanted() {
			h.ring.note(obs.At, "policy: defrag %s (frag %.3f)", n.Name, obs.Fragmentation)
			n.Ctrl.Defragment(d.Defrag.MaxMoves)
		}
	}
}

// The bounded-fragmentation invariant: no node may hold fragmentation above
// fragBound for fragEpochs consecutive epochs.
const (
	fragBound  = 0.98
	fragEpochs = 5
)

// fragSweep runs the bounded-fragmentation invariant: every node's
// fragmentation must not stay above fragBound for fragEpochs consecutive
// epochs. A transient spike right after a release wave is legal — the bound
// is on sustained saturation, which adaptive mode must defragment away and
// static mode must not plausibly reach. Returns the worst node and its
// fragmentation when the invariant is breached.
func (h *harness) fragSweep() (string, float64, bool) {
	for _, n := range h.f.Nodes() {
		f := n.Ctrl.Allocator().Fragmentation()
		if f > h.res.MaxFragmentation {
			h.res.MaxFragmentation = f
		}
		if f > fragBound {
			h.fragOver[n.Name]++
			if h.fragOver[n.Name] >= fragEpochs {
				return n.Name, f, true
			}
		} else {
			h.fragOver[n.Name] = 0
		}
	}
	return "", 0, false
}
