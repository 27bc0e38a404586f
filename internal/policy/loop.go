package policy

import (
	"time"

	"activermt/internal/telemetry"
)

// Loop periodically takes an Observation of the switch, derives the rate
// signals against the previous one, asks the Engine to Decide, and hands the
// result to an Apply sink. Scheduling is injected so the loop runs on
// whatever clock the deployment uses (the netsim engine in simulation); it
// never spawns goroutines of its own.
type Loop struct {
	Engine   Engine
	Observe  func() Observation           // e.g. switchd.Node.Observe
	Schedule func(time.Duration, func())  // e.g. engine.Schedule
	Apply    func(Observation, Decisions) // pushes decisions into the layers

	Evals   uint64 // evaluations run
	Changes uint64 // evaluations whose decisions differed from the previous set

	last    Decisions
	decided bool
	prev    Observation
	seen    bool
	stopped bool
}

// AttachTelemetry registers the loop's own metrics, read from its counters,
// its last decision set and its last observation. Optional.
func (l *Loop) AttachTelemetry(reg *telemetry.Registry) {
	reg.Counter("activermt_policy_evals_total", "policy engine evaluations", &l.Evals)
	reg.Counter("activermt_policy_changes_total", "evaluations that changed at least one decision", &l.Changes)
	reg.Gauge("activermt_policy_snapshot_window_ns", "currently decided realloc snapshot window",
		func() float64 { return float64(l.last.Controller.SnapshotTimeout) })
	reg.Gauge("activermt_policy_observed_fragmentation", "fragmentation as last observed by the policy loop",
		func() float64 { return l.prev.Fragmentation })
	reg.Gauge("activermt_policy_defrag_enabled", "1 when the current decisions enable defragmentation", func() float64 {
		if l.last.Defrag.Enabled {
			return 1
		}
		return 0
	})
}

// Start runs the first evaluation immediately and schedules the rest.
func (l *Loop) Start() {
	l.stopped = false
	l.tick()
}

// Stop halts future evaluations; the currently scheduled wake-up becomes a
// no-op.
func (l *Loop) Stop() { l.stopped = true }

func (l *Loop) tick() {
	if l.stopped {
		return
	}
	l.evaluate()
	l.Schedule(evalInterval, l.tick)
}

func (l *Loop) evaluate() {
	obs := l.Observe()
	if l.seen && obs.At > l.prev.At && obs.Violations >= l.prev.Violations {
		dt := (obs.At - l.prev.At).Seconds()
		obs.ViolationRate = float64(obs.Violations-l.prev.Violations) / dt
	}
	l.prev, l.seen = obs, true

	d := l.Engine.Decide(obs)
	l.Evals++
	if !l.decided || d != l.last {
		l.Changes++
	}
	l.last, l.decided = d, true
	if l.Apply != nil {
		l.Apply(obs, d)
	}
}
