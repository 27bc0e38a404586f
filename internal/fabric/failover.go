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
//     no further home-link failure; the home stays drained (correct, merely
//     colder) meanwhile.
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
)

// homeState is how far the home link's recovery has come; docs/fabric.md §5
// has the table of its transitions.
type homeState uint8

const (
	healthy    homeState = iota // the home is trusted and routes cross it
	degraded                    // a frontend's home link is dead: the home is drained
	scrubbing                   // a link came back: scrub the home, retrying while its controller is down
	confirming                  // scrubbed: waiting on a fresh probe echo of the healed link
	undraining                  // confirmed: the drain lifts RestoreDelay later
)

// WatchHealth subscribes the cache to the fabric health monitor: home-link
// failures enter degraded mode, recoveries resynchronize the home replica.
// Call it before h.Start: the cache counts dead home links from the events.
func (c *CoherentCache) WatchHealth(h *Health) {
	c.health = h
	h.Subscribe(func(ev LinkEvent) {
		if _, ok := c.fronts[ev.Leaf]; ok && ev.Spine == c.home {
			c.stepHome(&ev, false)
		}
	})
}

// Degraded reports whether the cache operates degraded: from a home-link
// failure until the healed link is confirmed (the drain lifts later).
func (c *CoherentCache) Degraded() bool { return c.homeState != healthy && c.homeState != undraining }

// Fire runs a recovery timer: a scrub retry, a Confirm's report or the
// undrain countdown. One armed under an earlier recovery, or in a state the
// cache has since left, does nothing.
func (c *CoherentCache) Fire(arg uint64) {
	if arg&^answered == c.timerArg() {
		c.stepHome(nil, arg&answered != 0)
	}
}

// timerArg is the arg of the timer the current state arms: the recovery gen
// above bit 8, the state above bit 0 (Health's answered).
func (c *CoherentCache) timerArg() uint64 { return c.recoveryGen<<8 | uint64(c.homeState)<<1 }

// stepHome makes every transition of the home link's recovery
// (docs/fabric.md §5), on a frontend's home-link event ev or, with ev nil,
// on the timer the current state armed; echoed reports a Confirm's probe
// answered. A Down in scrubbing or confirming leaves the recovery to abort
// at its next step. Writes committed during the drain leave home-stale keys
// (their home installs are suppressed), so the countdown scrubs once more.
func (c *CoherentCache) stepHome(ev *LinkEvent, echoed bool) {
	st := c.homeState
	if ev != nil && !ev.Down {
		c.linksDown--
		if st != degraded { // an Up during a recovery starts nothing new
			return
		}
		c.recoveryGen++
		c.recoveryLeaf = ev.Leaf
		st = scrubbing
	}
	switch {
	case ev != nil && ev.Down:
		// Any install sent toward the home in the detection window may have
		// died on the link.
		c.linksDown++
		for key := range c.dir {
			c.homeStale[key] = true
		}
		if !c.Degraded() {
			c.homeState = degraded
			c.fc.DegradedEntries++
			c.fc.F.SetSpineDrain(c.home, true)
		}
		return
	case st == undraining && (len(c.homeStale) == 0 || c.scrubHome()):
		c.homeState = healthy
		c.fc.F.SetSpineDrain(c.home, false)
		return
	case st == undraining: // the home controller is down: retry the scrub
	case c.linksDown > 0:
		c.homeState = degraded
		return
	case st == confirming && echoed:
		c.homeState = undraining
		c.fc.DegradedExits++
	case st == confirming || !c.scrubHome():
		c.homeState = scrubbing
	default:
		c.homeState = confirming
		c.health.Confirm(c.recoveryLeaf, c.home, c, c.timerArg())
		return
	}
	c.fc.F.Eng.ScheduleTimer(RestoreDelay, c, c.timerArg())
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
// the whole set under newFID: the old members are released and unpinned
// (releaseSet), a fresh set is admitted on the same leaves, the frontends
// rebound, and every member device scrubbed. Epochs cannot be reconciled in
// place — they are per-device monotone counters — so a fresh FID with
// freshly aligned epochs is the only sound repair. Returns whether a repair
// ran. Must be called from outside engine callbacks (it drives the
// simulation).
func (c *CoherentCache) VerifyAndRepair(newFID uint16) (bool, error) {
	if c.SetConsistent() {
		return false, nil
	}
	leaves := make([]int, 0, len(c.fronts))
	for l := range c.fronts {
		leaves = append(leaves, l)
	}
	sort.Ints(leaves)
	c.fc.releaseSet(c.set)
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
	return true, nil
}
