package policy

import (
	"time"

	"activermt/internal/telemetry"
)

// Loop is the one closed control loop over a switch. Each Step takes an
// Observation, derives the violation rate against the previous one, decides
// a full set of Decisions and hands it to Apply. Each signal adjusts exactly
// one family of decisions, with hysteresis so settings do not oscillate:
//
//   - a guard-violation burst tightens the escalation ladder until the
//     rate subsides for quietDecides evaluations;
//   - realloc snapshot timeouts widen the snapshot window (laggy clients
//     need more time), escalations alone widen it less; quiet decides
//     decay it back toward the default;
//   - corruption-sweep quarantines arm a periodic background sweep;
//   - link flaps speed up health probing and lengthen the re-trust
//     cooldown.
//
// Defragmentation is not among them: whether a pass can move anyone is the
// allocator's answer (Controller.Defragment), not a threshold on a gauge.
//
// The driver owns the clock: the testbed steps the loop on the simulation
// engine, the soak once per epoch. All state is deterministic in the
// observation sequence, so runs replay per seed.
type Loop struct {
	Observe func() Observation // e.g. switchd.Node.Observe
	Apply   func(Decisions)    // e.g. switchd.Node.ApplyPolicy

	Evals   uint64 // evaluations run
	Changes uint64 // evaluations whose decisions differed from the previous set

	last Decisions
	prev Observation
	seen bool

	guardTight bool
	guardQuiet int
	snapScale  float64 // multiplier on the default snapshot window
	snapQuiet  int
	sweepArmed bool
	sweepQuiet int
	probeFast  bool
	probeQuiet int
}

const (
	quietDecides  = 20   // evaluations of calm before relaxing a tightened knob
	maxSnapScale  = 4.0  // snapshot window never grows past 4x default
	adaptiveBurst = 20.0 // violations/sec that counts as an attack burst
	adaptiveCalm  = 2.0  // rate below which the ladder relaxes
	fastProbeDiv  = 2    // probe interval divisor under link flaps
	flapCooldownX = 4    // restore-delay multiplier under link flaps
)

// AttachTelemetry registers the loop's own metrics, read from its counters
// and its last decision set. Optional.
func (l *Loop) AttachTelemetry(reg *telemetry.Registry) {
	reg.Counter("activermt_policy_evals_total", "policy loop evaluations", &l.Evals)
	reg.Counter("activermt_policy_changes_total", "evaluations that changed at least one decision", &l.Changes)
	reg.Gauge("activermt_policy_snapshot_window_ns", "currently decided realloc snapshot window",
		func() float64 { return float64(l.last.SnapshotTimeout) })
}

// Step runs one evaluation: observe, derive the violation rate, decide,
// count, apply.
func (l *Loop) Step() {
	obs := l.Observe()
	if l.seen && obs.At > l.prev.At && obs.Violations >= l.prev.Violations {
		dt := (obs.At - l.prev.At).Seconds()
		obs.ViolationRate = float64(obs.Violations-l.prev.Violations) / dt
	}
	d := l.Decide(obs)
	l.Evals++
	if l.Evals == 1 || d != l.last {
		l.Changes++
	}
	l.last = d
	l.Apply(d)
}

// Decide folds one observation into the loop's state and returns the
// decisions it calls for. The counter deltas are taken against the previous
// observation Decide saw.
func (l *Loop) Decide(obs Observation) Decisions {
	d := DefaultDecisions()
	if l.snapScale == 0 {
		l.snapScale = 1.0
	}

	// Guard ladder: tighten under a violation burst, relax after sustained
	// calm. Tightening halves every escalation rung (floors keep the
	// ladder ordered) and doubles the rate-limit severity.
	if obs.ViolationRate >= adaptiveBurst {
		l.guardTight, l.guardQuiet = true, 0
	} else if l.guardTight {
		if obs.ViolationRate <= adaptiveCalm {
			l.guardQuiet++
			if l.guardQuiet >= quietDecides {
				l.guardTight = false
			}
		} else {
			l.guardQuiet = 0
		}
	}
	if l.guardTight {
		g := &d.Guard
		g.RateLimitAt = max(DefaultWarnAt+1, g.RateLimitAt/2)
		g.QuarantineAt = max(g.RateLimitAt+1, g.QuarantineAt/2)
		g.EvictAt = max(g.QuarantineAt+1, g.EvictAt/2)
		g.RateLimitPass = max(2, g.RateLimitPass*2)
	}

	// Snapshot window: timeouts mean clients are missing the window —
	// widen it. Escalations without timeouts mean the half-window re-send
	// is doing the saving — widen gently. Decay back when quiet.
	if l.seen {
		switch {
		case obs.SnapshotTimeouts > l.prev.SnapshotTimeouts:
			l.snapScale, l.snapQuiet = min(maxSnapScale, l.snapScale*1.5), 0
		case obs.SnapshotEscalations > l.prev.SnapshotEscalations:
			l.snapScale, l.snapQuiet = min(maxSnapScale, l.snapScale*1.25), 0
		default:
			l.snapQuiet++
			if l.snapQuiet >= quietDecides && l.snapScale > 1.0 {
				l.snapScale = max(1.0, l.snapScale*0.8)
				l.snapQuiet = 0
			}
		}
	}
	d.SnapshotTimeout = time.Duration(float64(DefaultSnapshotTimeout) * l.snapScale)

	// Background sweep: corruption anywhere arms a periodic parity sweep;
	// a long quiet stretch disarms it.
	if l.seen && obs.CorruptQuarantines > l.prev.CorruptQuarantines {
		l.sweepArmed, l.sweepQuiet = true, 0
	} else if l.sweepArmed {
		l.sweepQuiet++
		if l.sweepQuiet >= quietDecides {
			l.sweepArmed = false
		}
	}
	if l.sweepArmed {
		d.SweepEvery = 250 * time.Millisecond
	}

	// Link health: flaps speed detection up and slow re-trust down.
	if l.seen && obs.LinkFlaps > l.prev.LinkFlaps {
		l.probeFast, l.probeQuiet = true, 0
	} else if l.probeFast {
		l.probeQuiet++
		if l.probeQuiet >= quietDecides {
			l.probeFast = false
		}
	}
	if l.probeFast {
		d.Fabric.ProbeInterval = DefaultProbeInterval / fastProbeDiv
		d.Fabric.RestoreDelay = DefaultRestoreDelay * flapCooldownX
	}

	l.prev, l.seen = obs, true
	return d
}
