package policy

import (
	"testing"
	"time"

	"activermt/internal/telemetry"
)

func TestStaticIsBitIdenticalToDefaults(t *testing.T) {
	want := DefaultDecisions()
	var eng Static
	if eng.Name() != "static" {
		t.Fatalf("name %q", eng.Name())
	}
	// Static must ignore the observation entirely, including extreme ones.
	observations := []Observation{
		{},
		{Fragmentation: 1.0, ViolationRate: 1e6, SnapshotTimeouts: 1 << 40},
		{At: time.Hour, Utilization: 0.99, Tenants: 4096, LinkFlaps: 1e9},
	}
	for i, obs := range observations {
		if got := eng.Decide(obs); got != want {
			t.Fatalf("obs %d: Static decided %+v, want defaults %+v", i, got, want)
		}
	}
	if DefaultDecisions().Defrag.Enabled {
		t.Fatal("defaults must not enable defragmentation")
	}
	if DefaultDecisions().SweepEvery != 0 {
		t.Fatal("defaults must not arm a background sweep")
	}
}

func TestDefaultDecisionsMatchHistoricalConstants(t *testing.T) {
	d := DefaultDecisions()
	if d.Controller.SnapshotTimeout != 500*time.Millisecond {
		t.Fatalf("snapshot window %v", d.Controller.SnapshotTimeout)
	}
	if d.Guard.RateLimitAt != 8 || d.Guard.QuarantineAt != 16 || d.Guard.EvictAt != 32 {
		t.Fatalf("guard ladder %+v", d.Guard)
	}
	if d.Fabric.ProbeInterval != 10*time.Millisecond {
		t.Fatalf("fabric timers %+v", d.Fabric)
	}
}

func TestAdaptiveDefragHysteresis(t *testing.T) {
	var a Adaptive
	d := a.Decide(Observation{Fragmentation: 0.1})
	if !d.Defrag.Enabled {
		t.Fatal("adaptive must arm defrag")
	}
	if a.DefragWanted() {
		t.Fatal("below trigger: migration should not be wanted")
	}
	a.Decide(Observation{Fragmentation: DefaultDefragTrigger + 0.01})
	if !a.DefragWanted() {
		t.Fatal("above trigger: migration wanted")
	}
	// In the hysteresis band the wish persists.
	a.Decide(Observation{Fragmentation: (DefaultDefragTrigger + DefaultDefragTarget) / 2})
	if !a.DefragWanted() {
		t.Fatal("inside band: migration must persist")
	}
	a.Decide(Observation{Fragmentation: DefaultDefragTarget - 0.01})
	if a.DefragWanted() {
		t.Fatal("below target: migration must stop")
	}
	// Severe fragmentation buys a bigger per-pass budget.
	d = a.Decide(Observation{Fragmentation: severeFrag + 0.05})
	if d.Defrag.MaxMoves != severeMaxMoves {
		t.Fatalf("severe budget %d, want %d", d.Defrag.MaxMoves, severeMaxMoves)
	}
}

func TestAdaptiveDefragBandOverride(t *testing.T) {
	a := Adaptive{DefragTrigger: 0.05, DefragTarget: 0.02}
	d := a.Decide(Observation{Fragmentation: 0.06})
	if d.Defrag.TriggerFrag != 0.05 || d.Defrag.TargetFrag != 0.02 {
		t.Fatalf("band override not emitted: %+v", d.Defrag)
	}
	if !a.DefragWanted() {
		t.Fatal("fragmentation above the overridden trigger must want migration")
	}
	a.Decide(Observation{Fragmentation: 0.01})
	if a.DefragWanted() {
		t.Fatal("below the overridden target must stop migration")
	}
}

func TestAdaptiveGuardTightenAndRelax(t *testing.T) {
	var a Adaptive
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
	var a Adaptive
	a.Decide(Observation{At: 0})
	d := a.Decide(Observation{At: time.Second, SnapshotTimeouts: 1})
	if d.Controller.SnapshotTimeout <= DefaultSnapshotTimeout {
		t.Fatalf("timeout did not widen the window: %v", d.Controller.SnapshotTimeout)
	}
	widened := d.Controller.SnapshotTimeout
	// Escalations widen more gently than timeouts.
	var b Adaptive
	b.Decide(Observation{At: 0})
	d = b.Decide(Observation{At: time.Second, SnapshotEscalations: 1})
	if d.Controller.SnapshotTimeout <= DefaultSnapshotTimeout || d.Controller.SnapshotTimeout >= widened {
		t.Fatalf("escalation widening %v out of (default, %v)", d.Controller.SnapshotTimeout, widened)
	}
	// The window is capped.
	var c Adaptive
	c.Decide(Observation{At: 0})
	for i := 1; i <= 40; i++ {
		d = c.Decide(Observation{At: time.Duration(i) * time.Second, SnapshotTimeouts: uint64(i)})
	}
	if d.Controller.SnapshotTimeout > time.Duration(maxSnapScale*float64(DefaultSnapshotTimeout)) {
		t.Fatalf("window exceeded the cap: %v", d.Controller.SnapshotTimeout)
	}
	// Quiet decides decay it back to the default eventually.
	last := d.Controller.SnapshotTimeout
	for i := 41; i < 41+30*quietDecides; i++ {
		d = c.Decide(Observation{At: time.Duration(i) * time.Second, SnapshotTimeouts: 40})
	}
	if d.Controller.SnapshotTimeout >= last {
		t.Fatalf("window never decayed: %v", d.Controller.SnapshotTimeout)
	}
}

func TestAdaptiveSweepAndProbeSignals(t *testing.T) {
	var a Adaptive
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

// fakeClock is a minimal deterministic scheduler for driving a Loop.
type fakeClock struct {
	now   time.Duration
	queue []fakeEvent
}

type fakeEvent struct {
	at time.Duration
	fn func()
}

func (c *fakeClock) schedule(d time.Duration, fn func()) {
	c.queue = append(c.queue, fakeEvent{at: c.now + d, fn: fn})
}

func (c *fakeClock) runUntil(t time.Duration) {
	for {
		best := -1
		for i, ev := range c.queue {
			if ev.at <= t && (best == -1 || ev.at < c.queue[best].at) {
				best = i
			}
		}
		if best == -1 {
			c.now = t
			return
		}
		ev := c.queue[best]
		c.queue = append(c.queue[:best], c.queue[best+1:]...)
		c.now = ev.at
		ev.fn()
	}
}

func TestLoopEvaluatesAndApplies(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{}
	applied := 0
	violations := uint64(0)
	var lastObs Observation
	loop := &Loop{
		Engine: &Adaptive{},
		// A switch whose guard charges one violation per evaluation interval.
		Observe: func() Observation {
			violations++
			return Observation{At: clk.now, Fragmentation: 0.9, Violations: violations}
		},
		Schedule: clk.schedule,
		Apply: func(obs Observation, d Decisions) {
			applied++
			want := 0.0 // no rate without a baseline
			if applied > 1 {
				want = 1 / evalInterval.Seconds()
			}
			if obs.ViolationRate != want {
				t.Fatalf("eval %d: violation rate %v/s, want %v", applied, obs.ViolationRate, want)
			}
			lastObs = obs
			if !d.Defrag.Enabled {
				t.Fatal("adaptive decisions must arm defrag")
			}
		},
	}
	loop.AttachTelemetry(reg)
	loop.Start()
	clk.runUntil(time.Second)
	if loop.Evals < 10 || applied != int(loop.Evals) {
		t.Fatalf("evals=%d applied=%d", loop.Evals, applied)
	}
	if lastObs.Fragmentation != 0.9 {
		t.Fatalf("observed fragmentation %v", lastObs.Fragmentation)
	}
	if loop.Changes == 0 || loop.Changes == loop.Evals {
		t.Fatalf("changes=%d of %d evals: first eval changes, steady state must not", loop.Changes, loop.Evals)
	}
	// The loop's own metrics are visible in the registry.
	var sawEvals, sawFrag bool
	snap := reg.Snapshot()
	for _, m := range snap.Metrics {
		switch m.Name {
		case "activermt_policy_evals_total":
			sawEvals = len(m.Samples) == 1 && m.Samples[0].Value == float64(loop.Evals)
		case "activermt_policy_observed_fragmentation":
			sawFrag = len(m.Samples) == 1 && m.Samples[0].Value == 0.9
		}
	}
	if !sawEvals || !sawFrag {
		t.Fatalf("loop telemetry missing: evals=%v frag=%v", sawEvals, sawFrag)
	}
	evals := loop.Evals
	loop.Stop()
	clk.runUntil(2 * time.Second)
	if loop.Evals != evals {
		t.Fatal("loop kept evaluating after Stop")
	}
}
