package soak

import (
	"time"

	"activermt/internal/chaos"
	"activermt/internal/fabric"
	"activermt/internal/netsim"
)

// The seeded chaos schedule. Every chaosEvery interval the driver installs
// one scenario from the library against a randomly drawn target — a fabric
// uplink for the link faults, a whole spine for partitions, a switch
// controller for crash/restart, a stage's SRAM for corruption. Targets are
// drawn from the run PRNG, so a seed fully determines the fault history.
//
// One scoping rule keeps the oracle honest: memory corruption is never
// aimed at a device holding coherent-cache state (the replica leaves and
// the home spine). Corrupted cache words are indistinguishable from a
// coherence bug to the staleness oracle, and the sweep-and-repair pass that
// accompanies the corruption is exercised just as well on a device holding
// only churned tenants.

// scenarioNames is the rotation the background scheduler draws from.
var scenarioNames = []string{
	"flaky-link", "flapping-port", "link-outage", "link-flap",
	"partition", "switch-outage", "corrupted-memory",
}

// chaosEvery is the background scenario cadence; spineKillFor how long the
// mid-soak home-spine kill lasts.
const (
	chaosEvery   = 5 * time.Second
	spineKillFor = 2 * time.Second
)

func (h *harness) maybeChaos() {
	now := h.f.Eng.Now()
	if now < h.nextChaos {
		return
	}
	h.nextChaos = now + chaosEvery
	name := scenarioNames[h.rng.Intn(len(scenarioNames))]
	seed := h.rng.Int63()
	var (
		sc  *chaos.Scenario
		sys = &chaos.System{Eng: h.f.Eng, Tel: h.tel} // device faults set sys.Node
		err error
	)
	switch name {
	case "flaky-link", "flapping-port", "link-outage", "link-flap":
		sc, err = chaos.Build(name, h.randomUplinks(2), 0, seed)
	case "partition":
		spine := h.rng.Intn(numSpines)
		sc = chaos.Outage(name, chaos.Partition{Ports: h.f.SpinePorts(spine)}, 100*time.Millisecond, 500*time.Millisecond, seed)
		name = name + ":" + h.f.Spines[spine].Name
	case "switch-outage":
		n := h.randomNode()
		sc = chaos.Outage(name, chaos.ControllerCrash{}, 50*time.Millisecond, 400*time.Millisecond, seed)
		sys.Node = n.Node
		name = name + ":" + n.Name
	case "corrupted-memory":
		n := h.corruptibleNode()
		if n == nil {
			return
		}
		stage := h.rng.Intn(n.RT.Device().NumStages())
		sc = chaos.CorruptedMemory(stage, 24, 100*time.Millisecond, 400*time.Millisecond, seed)
		sys.Node = n.Node
		name = name + ":" + n.Name
	}
	if err != nil || sc == nil {
		return
	}
	if err := sc.Install(sys); err != nil {
		return
	}
	h.res.ChaosInstalled++
	h.ring.note(now, "chaos installed: %s (seed %d)", name, seed)

	// Defrag rider: every third installed scenario also asks a node derived
	// from the scenario's own seed (no extra PRNG draw, so the fault schedule
	// is unchanged) for a mid-run defragmentation pass, which it queues when
	// a tenant can move. Live migration rides the same realloc protocol the
	// faults target, so the pass runs concurrently with the injected chaos; it
	// is the soak's only source of migrations.
	if h.res.ChaosInstalled%3 == 0 {
		nodes := h.f.Nodes()
		n := nodes[int((uint64(seed)>>8)%uint64(len(nodes)))]
		ctrl := n.Ctrl
		h.f.Eng.Schedule(10*time.Millisecond, func() {
			ctrl.Defragment()
		})
		h.ring.note(now, "chaos rider: defrag %s", n.Name)
	}
}

// randomUplinks draws up to n distinct leaf<->spine uplink ports.
func (h *harness) randomUplinks(n int) []*netsim.Port {
	seen := make(map[[2]int]bool)
	var out []*netsim.Port
	for try := 0; try < 4*n && len(out) < n; try++ {
		l, s := h.rng.Intn(numLeaves), h.rng.Intn(numSpines)
		if seen[[2]int{l, s}] {
			continue
		}
		seen[[2]int{l, s}] = true
		if p, err := h.f.UplinkPort(l, s); err == nil {
			out = append(out, p)
		}
	}
	return out
}

func (h *harness) randomNode() *fabric.Node {
	nodes := h.f.Nodes()
	return nodes[h.rng.Intn(len(nodes))]
}

// corruptibleNode picks a device that holds no coherent-cache state: any
// spine except the home, or the server leaf when it hosts no frontend.
func (h *harness) corruptibleNode() *fabric.Node {
	home := h.cc.Home().Index
	var cands []*fabric.Node
	for i, s := range h.f.Spines {
		if i != home {
			cands = append(cands, s)
		}
	}
	for i, l := range h.f.Leaves {
		if i >= 2 { // frontends sit on leaves 0 and 1
			cands = append(cands, l)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[h.rng.Intn(len(cands))]
}

// maybeSpineKill fires the milestone: partition the cache's HOME spine and
// crash its controller mid-soak. This is the run's hardest event — the only
// replica with unacknowledged installs goes dark along with its control
// plane — and the recovery arc (detect, drain, degrade, reroute, scrub,
// undrain) is verified by observeKillProgress.
func (h *harness) maybeSpineKill() {
	if h.killed || h.cfg.SpineKillAt < 0 || h.f.Eng.Now() < h.cfg.SpineKillAt {
		return
	}
	h.killed = true
	home := h.cc.Home().Index
	node := h.f.Spines[home]
	part, crash := chaos.Partition{Ports: h.f.SpinePorts(home)}, chaos.ControllerCrash{}
	sc := chaos.NewScenario("spine-kill:"+node.Name, h.cfg.Seed).
		Apply(0, part).Apply(10*time.Millisecond, crash).
		Revert(spineKillFor, crash).Revert(spineKillFor, part)
	if err := sc.Install(&chaos.System{Eng: h.f.Eng, Node: node.Node, Tel: h.tel}); err != nil {
		return
	}
	h.res.SpineKill.Fired = true
	h.killEntries, h.killExits, h.killReroutes = h.fc.DegradedEntries, h.fc.DegradedExits, h.f.Reroutes
	h.res.ChaosInstalled++
	h.ring.note(h.f.Eng.Now(), "spine-kill fired against %s for %v", node.Name, spineKillFor)
}

// observeKillProgress reads the recovery arc from the fabric's counters,
// which see a degraded episode however short; a sample of the cache's state
// at the epoch edge misses one that opens and closes between two edges. The
// cache went degraded once a degraded entry followed the kill, paths moved
// once a reroute followed it, and the cache recovered once as many
// exits as entries followed it, the home's drain is lifted and the cache is
// not degraded now.
func (h *harness) observeKillProgress() {
	if !h.res.SpineKill.Fired {
		return
	}
	k := &h.res.SpineKill
	entries, exits := h.fc.DegradedEntries-h.killEntries, h.fc.DegradedExits-h.killExits
	k.Degraded = entries > 0
	k.Rerouted = h.f.Reroutes > h.killReroutes
	if k.Degraded && exits >= entries && !h.cc.Degraded() && !h.f.Drained(h.cc.Home().Index) {
		k.Recovered = true
	}
}
