package chaos

import (
	"fmt"
	"time"

	"activermt/internal/netsim"
	"activermt/internal/switchd"
)

// The scenario library: named, parameterized fault schedules covering the
// failure modes the allocation protocol must survive. Each constructor
// returns a Scenario ready to Install; the caller supplies the target ports
// (faults on links are topology decisions, not system decisions).

// Names lists the library scenarios accepted by Build (and activesim
// -chaos).
func Names() []string {
	return []string{"flaky-link", "flapping-port", "controller-outage", "corrupted-memory",
		"link-outage", "link-flap", "partition"}
}

// Build constructs a library scenario by name. links are the client-side
// duplex links the link faults apply to (any end of each link); stage is the
// register stage corrupted-memory flips bits in. A scenario ignores the
// target it does not use.
func Build(name string, links []*netsim.Port, stage int, seed int64) (*Scenario, error) {
	const ms = time.Millisecond
	switch name {
	case "flaky-link":
		return FlakyLink(links, seed), nil
	case "flapping-port":
		if len(links) == 0 {
			return nil, fmt.Errorf("chaos: %s needs at least one link", name)
		}
		return FlappingPort(links[0], 300*ms, 5, seed), nil
	case "controller-outage":
		return ControllerOutage(40*ms, 400*ms, seed), nil
	case "corrupted-memory":
		return CorruptedMemory(stage, 24, 100*ms, 300*ms, seed), nil
	case "link-outage":
		if len(links) == 0 {
			return nil, fmt.Errorf("chaos: %s needs at least one link", name)
		}
		return LinkOutageScenario(links[0], 100*ms, 500*ms, seed), nil
	case "link-flap":
		if len(links) == 0 {
			return nil, fmt.Errorf("chaos: %s needs at least one link", name)
		}
		return LinkFlapScenario(links[0], 200*ms, 6, seed), nil
	case "partition":
		if len(links) == 0 {
			return nil, fmt.Errorf("chaos: %s needs at least one link", name)
		}
		return PartitionScenario(links, 100*ms, 500*ms, seed), nil
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Names())
	}
}

// FlakyLink alternates bursts of heavy loss with quiet periods on every
// given link: loss rates are drawn per burst from the scenario PRNG, so the
// protocol sees both moderate and severe loss. Exercises request/response
// retransmission and the controller's snapshot-window escalation.
func FlakyLink(links []*netsim.Port, seed int64) *Scenario {
	s := NewScenario("flaky-link", seed)
	rng := s.Rand("burst-rates")
	const (
		bursts     = 6
		burstEvery = 400 * time.Millisecond
		burstLen   = 200 * time.Millisecond
	)
	for i := 0; i < bursts; i++ {
		rate := 0.2 + 0.4*rng.Float64()
		at := time.Duration(i) * burstEvery
		for j, l := range links {
			inj := LinkLoss{Link: l, Rate: rate, Seed: seed + int64(i*31+j)}
			s.Apply(at, inj)
			s.Revert(at+burstLen, inj)
		}
	}
	return s
}

// FlappingPort takes one port down and up repeatedly (half the period down,
// half up). In-flight frames die on every down transition; the client rides
// through on retries and resumes on re-up.
func FlappingPort(p *netsim.Port, period time.Duration, flaps int, seed int64) *Scenario {
	s := NewScenario("flapping-port", seed)
	inj := PortDown{Port: p}
	for k := 0; k < flaps; k++ {
		at := time.Duration(k) * period
		s.Apply(at, inj)
		s.Revert(at+period/2, inj)
	}
	return s
}

// ControllerOutage crashes the control plane at crashAt and restarts it
// downFor later. Everything in controller memory — admission queue, client
// directory, allocation books — is lost; the restarted controller rebuilds
// from the switch tables and re-admits clients idempotently as their
// retransmitted requests arrive. Timed against an admission that forces
// reallocations, this is the paper's worst case: a crash in the middle of
// the deactivate/snapshot/update window.
func ControllerOutage(crashAt, downFor time.Duration, seed int64) *Scenario {
	s := NewScenario("controller-outage", seed)
	inj := ControllerCrash{}
	s.Apply(crashAt, inj)
	s.Revert(crashAt+downFor, inj)
	return s
}

// SwitchOutage crashes one specific device's controller at crashAt and
// restarts it downFor later. Unlike ControllerOutage it captures its target
// explicitly, so a multi-switch fabric (internal/fabric) can aim the
// failure at any of its nodes; recovery rides the same Crash/Restart path
// (allocation books rebuilt from the surviving switch tables via
// alloc.Recover, clients re-admitted idempotently at their old placement
// and epoch) on that one device while the rest of the fabric keeps
// forwarding.
func SwitchOutage(name string, ctrl *switchd.Controller, crashAt, downFor time.Duration, seed int64) *Scenario {
	s := NewScenario("switch-outage:"+name, seed)
	s.At(crashAt, "crash:"+name, func(*System) { ctrl.Crash() })
	s.At(crashAt+downFor, "restart:"+name, func(*System) { ctrl.Restart() })
	return s
}

// LinkOutageScenario kills one duplex link outright at outageAt and restores
// it downFor later: the clean-cut fabric failure a health monitor must
// detect (probes stop coming back), route around, and recover from.
func LinkOutageScenario(link *netsim.Port, outageAt, downFor time.Duration, seed int64) *Scenario {
	s := NewScenario("link-outage", seed)
	inj := LinkOutage{Link: link}
	s.Apply(outageAt, inj)
	s.Revert(outageAt+downFor, inj)
	return s
}

// LinkFlapScenario oscillates one duplex link (period/2 down, period/2 up)
// for the given number of flaps starting at 100 ms, then restores it. The
// flapping link is the adversarial case for failure detection: each down
// kills in-flight frames, each up tempts the monitor to trust the link
// again.
func LinkFlapScenario(link *netsim.Port, period time.Duration, flaps int, seed int64) *Scenario {
	s := NewScenario("link-flap", seed)
	inj := &LinkFlap{Link: link, Period: period, Flaps: flaps}
	s.Apply(100*time.Millisecond, inj)
	s.Revert(100*time.Millisecond+time.Duration(flaps+1)*period, inj)
	return s
}

// PartitionScenario downs every given port at partitionAt and restores them
// all downFor later: the clean isolation of one device (or one failure
// domain) from the rest of the fabric — e.g. every spine-side port of one
// spine (fabric.SpinePorts), the "spine kill". A one-sided down kills both
// directions: sends from the port are dropped at the port, sends toward it
// at delivery.
func PartitionScenario(ports []*netsim.Port, partitionAt, downFor time.Duration, seed int64) *Scenario {
	s := NewScenario("partition", seed)
	inj := Partition{Ports: ports}
	s.Apply(partitionAt, inj)
	s.Revert(partitionAt+downFor, inj)
	return s
}

// AdversarialTenant drives a full attack arc from one adversary endpoint
// against a victim tenant: a spray of malformed and truncated capsules, an
// epoch-guessing forgery burst under the victim's FID, an over-budget
// recirculation bomb, and finally an authenticated out-of-bounds write sweep
// across the victim's granted regions. The unauthenticated phases must land
// on the ingress-port ledger (the victim stays Healthy); the authenticated
// phases must walk the adversary's own ledger up the escalation ladder to
// quarantine and eviction. The adversary must be Armed with its granted FID
// and epoch before the authenticated phases fire.
func AdversarialTenant(adv *Adversary, victimFID uint16, seed int64) *Scenario {
	s := NewScenario("adversarial-tenant", seed)
	// Phase 1: protocol garbage, attributed to the port.
	s.Apply(20*time.Millisecond, AdversaryBurst{Adv: adv, Kind: "malformed", N: 6, Gap: 2 * time.Millisecond, Seed: seed + 1})
	s.Apply(40*time.Millisecond, AdversaryBurst{Adv: adv, Kind: "truncated", N: 6, Gap: 2 * time.Millisecond, Seed: seed + 2})
	// Phase 2: identity forgery against the victim.
	s.Apply(60*time.Millisecond, AdversaryBurst{Adv: adv, Kind: "forged", N: 10, Gap: 2 * time.Millisecond, VictimFID: victimFID, Seed: seed + 3})
	// Phase 3: authenticated resource abuse.
	s.Apply(90*time.Millisecond, AdversaryBurst{Adv: adv, Kind: "recirc", N: 6, Gap: 2 * time.Millisecond, Seed: seed + 4})
	// Phase 4: authenticated memory scan of the victim's regions. Long
	// enough to walk the default ladder end to end: the faults quarantine
	// the attacker, and its continued traffic escalates to eviction.
	s.Apply(120*time.Millisecond, AdversaryBurst{Adv: adv, Kind: "oob", N: 120, Gap: 1 * time.Millisecond, VictimFID: victimFID, Seed: seed + 5})
	return s
}

// SynFloodAttack schedules a bare-SYN flood: every source fires synsEach
// SYN capsules through the application-provided send hook, interleaved by
// the scenario PRNG and spaced gap apart starting at startAt. The hook keeps
// the library decoupled from any one detector implementation — the secapps
// SYN-flood driver's SynVia is the intended target, so the flood rides the
// victim application's own capsule path and its half-open counters climb
// exactly as a real attack would drive them (no ACKs ever follow).
func SynFloodAttack(send func(src uint32), sources []uint32, synsEach int, startAt, gap time.Duration, seed int64) *Scenario {
	s := NewScenario("syn-flood", seed)
	order := make([]uint32, 0, len(sources)*synsEach)
	for _, src := range sources {
		for i := 0; i < synsEach; i++ {
			order = append(order, src)
		}
	}
	rng := s.Rand("interleave")
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, src := range order {
		src := src
		s.At(startAt+time.Duration(i)*gap, fmt.Sprintf("syn:%#x", src), func(*System) { send(src) })
	}
	return s
}

// CorruptedMemory flips bits in one stage's register SRAM at corruptAt —
// preferentially inside installed application regions — and runs the
// controller's sweep-and-repair pass at sweepAt. The sweep scrubs the
// damaged words, quarantines the affected blocks, and re-places the owning
// applications around the fence via the normal reallocation protocol.
func CorruptedMemory(stage, bits int, corruptAt, sweepAt time.Duration, seed int64) *Scenario {
	s := NewScenario("corrupted-memory", seed)
	s.Apply(corruptAt, RegisterCorruption{Stage: stage, Bits: bits, Seed: seed, PreferOwned: true})
	s.At(sweepAt, "sweep-and-repair", func(sys *System) { sys.Ctrl.SweepAndRepair() })
	return s
}
