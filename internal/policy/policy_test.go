package policy

import (
	"testing"
	"time"

	"activermt/internal/telemetry"
)

func TestDefaultDecisionsMatchHistoricalConstants(t *testing.T) {
	d := DefaultDecisions()
	if d.SnapshotTimeout != 500*time.Millisecond {
		t.Fatalf("snapshot window %v", d.SnapshotTimeout)
	}
	if d.Guard.RateLimitAt != 8 || d.Guard.QuarantineAt != 16 || d.Guard.EvictAt != 32 {
		t.Fatalf("guard ladder %+v", d.Guard)
	}
	if d.Fabric.ProbeInterval != 10*time.Millisecond {
		t.Fatalf("fabric timers %+v", d.Fabric)
	}
	// With no loop nothing is armed: no background sweep.
	if d.SweepEvery != 0 {
		t.Fatal("defaults must not arm a background sweep")
	}
}

func TestAdaptiveGuardTightenAndRelax(t *testing.T) {
	var a Loop
	def := DefaultDecisions().Guard
	d := a.Decide(Observation{ViolationRate: adaptiveBurst * 2})
	g := d.Guard
	if g.RateLimitAt >= def.RateLimitAt || g.QuarantineAt >= def.QuarantineAt || g.EvictAt >= def.EvictAt {
		t.Fatalf("burst did not tighten the ladder: %+v", g)
	}
	if !(DefaultWarnAt < g.RateLimitAt && g.RateLimitAt < g.QuarantineAt && g.QuarantineAt < g.EvictAt) {
		t.Fatalf("tightened ladder out of order: %+v", g)
	}
	// One calm decide is not enough to relax.
	d = a.Decide(Observation{ViolationRate: 0})
	if d.Guard == def {
		t.Fatal("relaxed after a single calm decide")
	}
	// Sustained calm relaxes back to the defaults.
	for i := 0; i < quietDecides; i++ {
		d = a.Decide(Observation{ViolationRate: 0})
	}
	if d.Guard != def {
		t.Fatalf("ladder still tight after %d calm decides: %+v", quietDecides+1, d.Guard)
	}
}

func TestAdaptiveSnapshotWindowScaling(t *testing.T) {
	var a Loop
	a.Decide(Observation{At: 0})
	d := a.Decide(Observation{At: time.Second, SnapshotTimeouts: 1})
	if d.SnapshotTimeout <= DefaultSnapshotTimeout {
		t.Fatalf("timeout did not widen the window: %v", d.SnapshotTimeout)
	}
	widened := d.SnapshotTimeout
	// Escalations widen more gently than timeouts.
	var b Loop
	b.Decide(Observation{At: 0})
	d = b.Decide(Observation{At: time.Second, SnapshotEscalations: 1})
	if d.SnapshotTimeout <= DefaultSnapshotTimeout || d.SnapshotTimeout >= widened {
		t.Fatalf("escalation widening %v out of (default, %v)", d.SnapshotTimeout, widened)
	}
	// The window is capped.
	var c Loop
	c.Decide(Observation{At: 0})
	for i := 1; i <= 40; i++ {
		d = c.Decide(Observation{At: time.Duration(i) * time.Second, SnapshotTimeouts: uint64(i)})
	}
	if d.SnapshotTimeout > time.Duration(maxSnapScale*float64(DefaultSnapshotTimeout)) {
		t.Fatalf("window exceeded the cap: %v", d.SnapshotTimeout)
	}
	// Quiet decides decay it back to the default eventually.
	last := d.SnapshotTimeout
	for i := 41; i < 41+30*quietDecides; i++ {
		d = c.Decide(Observation{At: time.Duration(i) * time.Second, SnapshotTimeouts: 40})
	}
	if d.SnapshotTimeout >= last {
		t.Fatalf("window never decayed: %v", d.SnapshotTimeout)
	}
}

func TestAdaptiveSweepAndProbeSignals(t *testing.T) {
	var a Loop
	d := a.Decide(Observation{})
	if d.SweepEvery != 0 {
		t.Fatal("sweep armed with no corruption")
	}
	d = a.Decide(Observation{CorruptQuarantines: 2})
	if d.SweepEvery == 0 {
		t.Fatal("corruption did not arm the sweep")
	}
	d = a.Decide(Observation{CorruptQuarantines: 2, LinkFlaps: 1})
	if d.Fabric.ProbeInterval >= DefaultProbeInterval {
		t.Fatalf("flap did not speed probing: %v", d.Fabric.ProbeInterval)
	}
	if d.Fabric.RestoreDelay <= DefaultRestoreDelay {
		t.Fatalf("flap did not lengthen re-trust: %v", d.Fabric.RestoreDelay)
	}
	for i := 0; i <= quietDecides; i++ {
		d = a.Decide(Observation{CorruptQuarantines: 2, LinkFlaps: 1})
	}
	if d.SweepEvery != 0 || d.Fabric.ProbeInterval != DefaultProbeInterval {
		t.Fatalf("signals never relaxed: sweep %v probe %v", d.SweepEvery, d.Fabric.ProbeInterval)
	}
}

// TestLoopEvaluatesAndApplies steps a Loop over a switch whose guard charges
// one violation per 100 ms: every Step applies, the rate is derived against
// the previous observation, and the loop's metrics read its own state.
func TestLoopEvaluatesAndApplies(t *testing.T) {
	reg := telemetry.NewRegistry()
	const interval = 100 * time.Millisecond
	var now time.Duration
	violations := uint64(0)
	applied := 0
	var last Decisions
	loop := &Loop{
		Observe: func() Observation {
			violations++
			return Observation{At: now, Violations: violations}
		},
		Apply: func(d Decisions) { applied++; last = d },
	}
	loop.AttachTelemetry(reg)
	for i := 0; i < 10; i++ {
		loop.Step()
		want := 0.0 // no rate without a baseline
		if i > 0 {
			want = 1 / interval.Seconds()
		}
		if loop.prev.ViolationRate != want {
			t.Fatalf("eval %d: violation rate %v/s, want %v", i, loop.prev.ViolationRate, want)
		}
		now += interval
	}
	if loop.Evals != 10 || applied != 10 {
		t.Fatalf("evals=%d applied=%d", loop.Evals, applied)
	}
	if last != DefaultDecisions() {
		t.Fatalf("10 violations/s is below the burst rate, yet decisions %+v", last)
	}
	if loop.Changes == 0 || loop.Changes == loop.Evals {
		t.Fatalf("changes=%d of %d evals: first eval changes, steady state must not", loop.Changes, loop.Evals)
	}
	// The loop's own metrics are visible in the registry.
	var sawEvals, sawWindow bool
	snap := reg.Snapshot()
	for _, m := range snap.Metrics {
		switch m.Name {
		case "activermt_policy_evals_total":
			sawEvals = len(m.Samples) == 1 && m.Samples[0].Value == float64(loop.Evals)
		case "activermt_policy_snapshot_window_ns":
			sawWindow = len(m.Samples) == 1 && m.Samples[0].Value == float64(DefaultSnapshotTimeout)
		}
	}
	if !sawEvals || !sawWindow {
		t.Fatalf("loop telemetry missing: evals=%v window=%v", sawEvals, sawWindow)
	}
}
