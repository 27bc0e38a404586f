package chaos

import (
	"fmt"
	"time"

	"activermt/internal/netsim"
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
// target it does not use. Every verb is one injector under Outage or Flap,
// except flaky-link and corrupted-memory, which draw their own schedules.
func Build(name string, links []*netsim.Port, stage int, seed int64) (*Scenario, error) {
	const ms = time.Millisecond
	switch name {
	case "flaky-link":
		return FlakyLink(links, seed), nil
	case "controller-outage":
		return Outage(name, ControllerCrash{}, 40*ms, 400*ms, seed), nil
	case "corrupted-memory":
		return CorruptedMemory(stage, 24, 100*ms, 300*ms, seed), nil
	case "flapping-port", "link-outage", "link-flap", "partition":
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Names())
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("chaos: %s needs at least one link", name)
	}
	port := links[0]
	link := Partition{Ports: []*netsim.Port{port, port.Peer()}}
	switch name {
	case "flapping-port":
		return Flap(name, Partition{Ports: []*netsim.Port{port}}, 0, 300*ms, 5, seed), nil
	case "link-outage":
		return Outage(name, link, 100*ms, 500*ms, seed), nil
	case "link-flap":
		return Flap(name, link, 100*ms, 200*ms, 6, seed), nil
	}
	return Outage(name, Partition{Ports: links}, 100*ms, 500*ms, seed), nil
}

// Outage applies inj at at and reverts it downFor later: one fault window.
// With Partition it is a clean cut (one port, both ends of a link, or every
// port of one failure domain) that a health monitor must detect and route
// around; with ControllerCrash it is a control-plane outage, the paper's
// worst case when timed into a reallocation's deactivate/snapshot/update
// window.
func Outage(name string, inj Injector, at, downFor time.Duration, seed int64) *Scenario {
	s := NewScenario(name, seed)
	s.Apply(at, inj)
	s.Revert(at+downFor, inj)
	return s
}

// Flap applies inj flaps times, one period apart from start, each time for
// the first half of its period. A flapping link is the adversarial case for
// failure detection: each down kills the frames on the wire, each up tempts
// a monitor to trust the link again. Every pair is scheduled at install.
func Flap(name string, inj Injector, start, period time.Duration, flaps int, seed int64) *Scenario {
	s := NewScenario(name, seed)
	for k := 0; k < flaps; k++ {
		at := start + time.Duration(k)*period
		s.Apply(at, inj)
		s.Revert(at+period/2, inj)
	}
	return s
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
