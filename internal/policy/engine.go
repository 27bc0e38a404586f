package policy

import "time"

// Static is the default engine: it re-emits the historical constants on
// every Decide, ignoring the observation entirely. A system driven by
// Static is bit-identical to one with no policy loop at all.
type Static struct{}

func (Static) Name() string { return "static" }

func (Static) Decide(Observation) Decisions { return DefaultDecisions() }

// Adaptive reacts to the observation stream. Each signal adjusts exactly
// one family of decisions, with hysteresis so settings do not oscillate:
//
//   - fragmentation above the trigger enables online defragmentation
//     (appliers migrate until it falls below the target);
//   - a guard-violation burst tightens the escalation ladder until the
//     rate subsides for quietDecides evaluations;
//   - realloc snapshot timeouts widen the snapshot window (laggy clients
//     need more time), escalations alone widen it less; quiet decides
//     decay it back toward the default;
//   - corruption-sweep quarantines arm a periodic background sweep;
//   - link flaps speed up health probing and lengthen the re-trust
//     cooldown.
//
// All state is deterministic in the observation sequence, so runs replay
// per seed exactly like the static system.
type Adaptive struct {
	// DefragTrigger/DefragTarget override the migration hysteresis band
	// (defaults DefaultDefragTrigger/DefaultDefragTarget). A deployment
	// whose fragmentation gauge is structurally diluted — many stages its
	// tenants can never occupy — wants a lower band.
	DefragTrigger float64
	DefragTarget  float64

	prev         Observation
	seen         bool
	guardTight   bool
	guardQuiet   int
	snapScale    float64 // multiplier on the default snapshot window
	snapQuiet    int
	sweepArmed   bool
	sweepQuiet   int
	probeFast    bool
	probeQuiet   int
	defragActive bool
}

const (
	quietDecides   = 20   // evaluations of calm before relaxing a tightened knob
	maxSnapScale   = 4.0  // snapshot window never grows past 4x default
	adaptiveBurst  = 20.0 // violations/sec that counts as an attack burst
	adaptiveCalm   = 2.0  // rate below which the ladder relaxes
	fastProbeDiv   = 2    // probe interval divisor under link flaps
	flapCooldownX  = 4    // restore-delay multiplier under link flaps
	severeFrag     = 0.7
	severeMaxMoves = 8
)

func (a *Adaptive) Name() string { return "adaptive" }

func (a *Adaptive) Decide(obs Observation) Decisions {
	d := DefaultDecisions()
	if a.snapScale == 0 {
		a.snapScale = 1.0
	}

	// Defragmentation: always armed; the trigger/target hysteresis band
	// decides when appliers actually migrate. Severe fragmentation buys a
	// bigger per-pass budget.
	d.Defrag.Enabled = true
	if a.DefragTrigger > 0 {
		d.Defrag.TriggerFrag = a.DefragTrigger
	}
	if a.DefragTarget > 0 {
		d.Defrag.TargetFrag = a.DefragTarget
	}
	if obs.Fragmentation >= severeFrag {
		d.Defrag.MaxMoves = severeMaxMoves
	}
	switch {
	case obs.Fragmentation >= d.Defrag.TriggerFrag:
		a.defragActive = true
	case obs.Fragmentation < d.Defrag.TargetFrag:
		a.defragActive = false
	}

	// Guard ladder: tighten under a violation burst, relax after sustained
	// calm. Tightening halves every escalation rung (floors keep the
	// ladder ordered) and doubles the rate-limit severity.
	if obs.ViolationRate >= adaptiveBurst {
		a.guardTight, a.guardQuiet = true, 0
	} else if a.guardTight {
		if obs.ViolationRate <= adaptiveCalm {
			a.guardQuiet++
			if a.guardQuiet >= quietDecides {
				a.guardTight = false
			}
		} else {
			a.guardQuiet = 0
		}
	}
	if a.guardTight {
		g := &d.Guard
		g.RateLimitAt = max(DefaultWarnAt+1, g.RateLimitAt/2)
		g.QuarantineAt = max(g.RateLimitAt+1, g.QuarantineAt/2)
		g.EvictAt = max(g.QuarantineAt+1, g.EvictAt/2)
		g.RateLimitPass = max(2, g.RateLimitPass*2)
	}

	// Snapshot window: timeouts mean clients are missing the window —
	// widen it. Escalations without timeouts mean the half-window re-send
	// is doing the saving — widen gently. Decay back when quiet.
	if a.seen {
		switch {
		case obs.SnapshotTimeouts > a.prev.SnapshotTimeouts:
			a.snapScale, a.snapQuiet = min(maxSnapScale, a.snapScale*1.5), 0
		case obs.SnapshotEscalations > a.prev.SnapshotEscalations:
			a.snapScale, a.snapQuiet = min(maxSnapScale, a.snapScale*1.25), 0
		default:
			a.snapQuiet++
			if a.snapQuiet >= quietDecides && a.snapScale > 1.0 {
				a.snapScale = max(1.0, a.snapScale*0.8)
				a.snapQuiet = 0
			}
		}
	}
	d.Controller.SnapshotTimeout = time.Duration(float64(DefaultSnapshotTimeout) * a.snapScale)

	// Background sweep: corruption anywhere arms a periodic parity sweep;
	// a long quiet stretch disarms it.
	if a.seen && obs.CorruptQuarantines > a.prev.CorruptQuarantines {
		a.sweepArmed, a.sweepQuiet = true, 0
	} else if a.sweepArmed {
		a.sweepQuiet++
		if a.sweepQuiet >= quietDecides {
			a.sweepArmed = false
		}
	}
	if a.sweepArmed {
		d.SweepEvery = 250 * time.Millisecond
	}

	// Link health: flaps speed detection up and slow re-trust down.
	if a.seen && obs.LinkFlaps > a.prev.LinkFlaps {
		a.probeFast, a.probeQuiet = true, 0
	} else if a.probeFast {
		a.probeQuiet++
		if a.probeQuiet >= quietDecides {
			a.probeFast = false
		}
	}
	if a.probeFast {
		d.Fabric.ProbeInterval = DefaultProbeInterval / fastProbeDiv
		d.Fabric.RestoreDelay = DefaultRestoreDelay * flapCooldownX
	}

	a.prev, a.seen = obs, true
	return d
}

// DefragWanted reports whether the engine's hysteresis currently calls for
// migration (fragmentation crossed the trigger and has not yet fallen
// below the target).
func (a *Adaptive) DefragWanted() bool { return a.defragActive }
