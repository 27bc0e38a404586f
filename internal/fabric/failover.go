// Degraded-mode coherence and repair for the coherent cache.
//
// The home spine is the only replica the write protocol cannot invalidate
// with an acknowledged hairpin: installs toward it cross a fabric link that
// chaos can cut, flap, or silently lose frames on. Failure handling
// therefore centers on the home:
//
//   - Degraded entry. When the health monitor declares any frontend leaf's
//     link to the home spine dead, the cache DRAINS the home
//     (Fabric.SetSpineDrain): all host-bound routes avoid it, so no reader
//     can consult home state that is about to miss updates. Every known key
//     is conservatively marked home-stale — a commit in the detection
//     window may have died on the dead link after being counted as an
//     install. Writes keep flowing: invalidation hairpins never cross the
//     fabric, commits reroute over surviving spines, and reads are served
//     by leaf replicas or fall through to the server. Only the home's share
//     of the hit ratio is sacrificed.
//
//   - Resynchronization. Stale home words are scrubbed through the CONTROL
//     plane (switchd.Controller.ScrubFID), not with data-plane sentinels: a
//     sentinel capsule is unacknowledged, so on a lossy link it can vanish
//     and leave the stale value in place with nothing to notice. The scrub
//     zeroes the cache's registers on the home device directly; zero is the
//     miss sentinel, so the worst case after a scrub is a miss that refills
//     from the server. The drain lifts only once the scrub has run against
//     a live controller, the health monitor has Confirmed the healed link
//     with a fresh probe echo, and the RestoreDelay window has passed with
//     no further home-link failure. A crashed home controller defers the
//     scrub — the poller retries until the controller restarts, and the
//     home stays drained (correct, merely colder) in the meantime.
//
//   - Repair. If the replica set itself has diverged (a member lost its
//     grant, epochs skewed after a controller recovery), per-switch grant
//     epochs cannot be rewound into alignment — they are monotone per
//     device. VerifyAndRepair instead re-places the whole set under a
//     FRESH FID, rebinds the frontends, and scrubs every member device:
//     re-granted SRAM could hold key/value words from the previous
//     incarnation, and a matching key would be a stale hit.
package fabric

import (
	"fmt"
	"sort"
	"time"
)

// WatchHealth subscribes the cache to the fabric health monitor: home-link
// failures enter degraded mode, recoveries resynchronize the home replica.
func (c *CoherentCache) WatchHealth(h *Health) {
	c.health = h
	h.Subscribe(c.onLinkEvent)
}

// Degraded reports whether the cache currently operates with the home
// spine drained.
func (c *CoherentCache) Degraded() bool { return c.degraded }

// frontHomeLinkDown reports whether any frontend leaf's link to the home is
// currently declared dead.
func (c *CoherentCache) frontHomeLinkDown() bool {
	for l := range c.fronts {
		if c.health.LinkDown(l, c.home) {
			return true
		}
	}
	return false
}

// onLinkEvent reacts to health transitions of frontend<->home links: a
// Down enters degraded mode, an Up starts the recovery poller unless one
// runs already.
func (c *CoherentCache) onLinkEvent(ev LinkEvent) {
	if ev.Spine != c.home {
		return
	}
	if _, ok := c.fronts[ev.Leaf]; !ok {
		return
	}
	if ev.Down {
		// Conservative staleness: any install sent toward the home in the
		// detection window may have died on the link — mark every known key.
		for key := range c.dir {
			c.homeStale[key] = true
		}
		if !c.degraded {
			c.degraded = true
			c.fc.DegradedEntries++
			c.fc.F.SetSpineDrain(c.home, true)
		}
		return
	}
	if !c.recovering {
		c.recovering = true
		c.stepRecovery(ev.Leaf, false)
	}
}

// stepRecovery moves the degraded-exit poller one step. A home link down
// aborts it (the next Up restarts it). A confirmed link leaves degraded mode
// and starts the undrain countdown. A failed scrub (the home controller is
// down) or an unanswered probe retries after RestoreDelay; the home stays
// drained meanwhile. Otherwise the home is scrubbed clean, so probe the
// healed link before trusting it.
func (c *CoherentCache) stepRecovery(leaf int, confirmed bool) {
	probed := c.probing
	c.probing = false
	switch {
	case c.frontHomeLinkDown():
		c.recovering = false
	case confirmed:
		c.recovering = false
		if c.degraded {
			c.degraded = false
			c.fc.DegradedExits++
		}
		c.fc.F.Eng.Schedule(c.health.RestoreDelay, c.tryUndrain)
	case probed || !c.scrubHome():
		c.fc.F.Eng.Schedule(c.health.RestoreDelay, func() { c.stepRecovery(leaf, false) })
	default:
		c.probing = true
		c.health.Confirm(leaf, c.home, func(ok bool) { c.stepRecovery(leaf, ok) })
	}
}

// tryUndrain lifts the home drain once the cache is out of degraded mode and
// the home holds no stale words. Writes committed during the drain window
// mark homeStale (their direct home installs are suppressed while the spine
// is drained), so a final scrub may be needed right before routes start
// crossing the home again.
func (c *CoherentCache) tryUndrain() {
	if c.degraded || c.frontHomeLinkDown() {
		return
	}
	if len(c.homeStale) > 0 && !c.scrubHome() {
		c.fc.F.Eng.Schedule(c.health.RestoreDelay, c.tryUndrain)
		return
	}
	c.fc.F.SetSpineDrain(c.home, false)
}

// scrubHome zeroes the cache's registers on the home device through the
// home's own controller — the reliable control channel, immune to the frame
// loss that could silently eat a wipe capsule. Returns false (leaving the
// stale marks in place) when the home controller is crashed.
func (c *CoherentCache) scrubHome() bool {
	if _, ok := c.fc.F.Spines[c.home].Ctrl.ScrubFID(c.set.FID); !ok {
		return false
	}
	c.homeStale = make(map[uint64]bool)
	c.HomeSyncs++
	return true
}

// SetConsistent reports whether every replica member still shares one
// placement and one grant epoch — the precondition for a single capsule to
// execute validly everywhere.
func (c *CoherentCache) SetConsistent() bool {
	ms := c.set.Members
	if len(ms) == 0 {
		return true
	}
	ref := ms[0].Client
	for _, m := range ms[1:] {
		if m.Client.Epoch() != ref.Epoch() ||
			!samePlacement(m.Client.Placement(), ref.Placement()) {
			return false
		}
	}
	return true
}

// VerifyAndRepair checks replica consistency and, on divergence, re-places
// the whole set under newFID: the old members are released, a fresh set is
// admitted on the same leaves, the frontends rebound, and every member
// device scrubbed. Epochs cannot be reconciled in place — they are
// per-device monotone counters — so a fresh FID with freshly aligned epochs
// is the only sound repair. Returns whether a repair ran. Must be
// called from outside engine callbacks (it drives the simulation).
func (c *CoherentCache) VerifyAndRepair(newFID uint16) (bool, error) {
	if c.SetConsistent() {
		return false, nil
	}
	leaves := make([]int, 0, len(c.fronts))
	for l := range c.fronts {
		leaves = append(leaves, l)
	}
	sort.Ints(leaves)
	for _, m := range c.set.Members {
		if m.Client.Placement() != nil {
			_ = m.Client.Release()
		}
	}
	c.fc.F.RunFor(500 * time.Millisecond)
	set, err := c.fc.PlaceReplicas(newFID, leaves, c.srvMAC, c.svc)
	if err != nil {
		return false, fmt.Errorf("fabric: cache repair: %w", err)
	}
	c.set = set
	for _, m := range set.Members {
		if !m.Node.Leaf {
			continue
		}
		fr := c.fronts[m.Leaf]
		fr.cl = m.Client
		m.Client.Handler = c.handlerFor(fr)
	}
	// Scrub every member and forget the directory and stale marks: they
	// describe the previous incarnation.
	for _, m := range c.set.Members {
		m.Node.Ctrl.ScrubFID(c.set.FID)
	}
	c.dir = make(map[uint64]uint64)
	c.homeStale = make(map[uint64]bool)
	c.Repairs++
	c.fc.RePlacements++
	return true, nil
}
