package soak

import "activermt/internal/policy"

// The soak's closed control loop. In adaptive mode every node carries its
// own policy.Loop, stepped once per epoch by the driver (never from an engine
// callback — control actions step the engine internally). Each loop observes
// its node (Node.Observe) and applies through Node.ApplyPolicy; the hooks add
// only what the fabric owns: its link-flap count to every observation, and
// leaf 0's decided probe timers to the health monitor. The loops never ask
// for defragmentation: the soak's migrations are the chaos rider's
// (chaosctl.go), in both modes. Static mode builds no loops and this file is
// inert: the run is bit-identical to a policy-free soak.

func (h *harness) attachPolicy() {
	for i, n := range h.f.Nodes() {
		h.loops = append(h.loops, &policy.Loop{
			Observe: func() policy.Observation {
				obs := n.Observe()
				obs.LinkFlaps = h.hm.FlapsObserved // the fabric's signal, not one node's
				return obs
			},
			Apply: func(d policy.Decisions) {
				n.ApplyPolicy(d)
				if i == 0 {
					h.hm.ApplyTimers(d.Fabric)
				}
			},
		})
	}
}

// stepPolicy runs one evaluation of every node's loop.
func (h *harness) stepPolicy() {
	for _, l := range h.loops {
		l.Step()
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
// is on sustained saturation, which neither mode may plausibly reach.
// Returns the worst node and its fragmentation when the invariant is
// breached.
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
