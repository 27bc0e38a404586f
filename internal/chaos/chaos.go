// Package chaos is a deterministic fault-injection and scenario-orchestration
// layer over the netsim virtual-time simulator. It provides one composable
// injector per fault (link loss, delay/jitter, Partition for any set of
// downed ports, ControllerCrash, register-memory corruption), a Scenario
// schedule that arms them at virtual-time offsets, and two shared schedules
// (Outage: one window; Flap: repeated half-period windows). Everything is driven by
// seeded PRNGs and the single-threaded event engine, so a scenario replayed
// with the same seed produces the same event trace, the same packet drops,
// and the same final state — failures found under chaos are reproducible by
// construction.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"activermt/internal/netsim"
	"activermt/internal/switchd"
	"activermt/internal/telemetry"
)

// System bundles what a scenario acts on: the engine it is scheduled on
// and, for faults aimed at a device (controller crash, memory corruption),
// that switch — promoted Switch, Ctrl, RT, Guard. The
// testbed package exposes one via (*Testbed).System(); link-only scenarios
// need no Node.
type System struct {
	Eng *netsim.Engine
	*switchd.Node
	Tel *Telemetry // nil when telemetry is disabled
}

// Telemetry counts injected fault events by name across every scenario
// installed with it, so a scrape can correlate data-plane metric movement
// with the chaos schedule that caused it.
type Telemetry struct {
	names  []string // in first-fired order
	counts map[string]uint64
}

// NewTelemetry registers the chaos event counter family.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	t := &Telemetry{counts: map[string]uint64{}}
	reg.Vec("activermt_chaos_events_total", "Chaos scenario events fired, by event name.", telemetry.KindCounter, "event",
		func(add func(string, float64)) {
			for _, name := range t.names {
				add(name, float64(t.counts[name]))
			}
		})
	return t
}

// Injector is one composable fault: Apply arms it, Revert disarms it.
// Injectors are value types; a scenario schedules Apply/Revert pairs at
// virtual-time offsets. Reverting a one-shot fault (e.g. memory corruption)
// is a no-op — the damage stays until repaired in-protocol.
type Injector interface {
	Name() string
	Apply(sys *System)
	Revert(sys *System)
}

// TraceEntry records one scenario event firing, in virtual time.
type TraceEntry struct {
	At   time.Duration
	Name string
}

func (e TraceEntry) String() string { return fmt.Sprintf("%s@%v", e.Name, e.At) }

type event struct {
	off    time.Duration
	name   string
	action func(sys *System)
}

// Scenario is a schedule of fault events at virtual-time offsets. Build it
// with At/Apply/Revert, then Install it on a system; offsets are relative to
// install time. The fired events accumulate in Trace, which is the scenario's
// determinism witness: same seed, same topology, same trace.
type Scenario struct {
	Name string
	Seed int64

	events    []event
	trace     []TraceEntry
	installed bool
}

// NewScenario starts an empty scenario.
func NewScenario(name string, seed int64) *Scenario {
	return &Scenario{Name: name, Seed: seed}
}

// At schedules an arbitrary named action at the given offset.
func (s *Scenario) At(off time.Duration, name string, action func(sys *System)) *Scenario {
	s.events = append(s.events, event{off: off, name: name, action: action})
	return s
}

// Apply schedules arming an injector.
func (s *Scenario) Apply(off time.Duration, inj Injector) *Scenario {
	return s.At(off, "apply:"+inj.Name(), inj.Apply)
}

// Revert schedules disarming an injector.
func (s *Scenario) Revert(off time.Duration, inj Injector) *Scenario {
	return s.At(off, "revert:"+inj.Name(), inj.Revert)
}

// Rand derives a deterministic PRNG for a named stream of this scenario:
// independent streams (loss rates, corruption addresses, flap timing) stay
// independent of each other but fully determined by (Seed, stream).
func (s *Scenario) Rand(stream string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return rand.New(rand.NewSource(s.Seed ^ int64(h.Sum64())))
}

// Install schedules every event on the system's engine, offsets measured
// from now. A scenario installs once.
func (s *Scenario) Install(sys *System) error {
	if s.installed {
		return fmt.Errorf("chaos: scenario %q already installed", s.Name)
	}
	if sys == nil || sys.Eng == nil {
		return fmt.Errorf("chaos: scenario %q needs a system with an engine", s.Name)
	}
	s.installed = true
	for _, ev := range s.events {
		ev := ev
		sys.Eng.Schedule(ev.off, func() {
			s.trace = append(s.trace, TraceEntry{At: sys.Eng.Now(), Name: ev.name})
			if t := sys.Tel; t != nil {
				if t.counts[ev.name]++; t.counts[ev.name] == 1 {
					t.names = append(t.names, ev.name)
				}
			}
			ev.action(sys)
		})
	}
	return nil
}

// Trace returns the events fired so far, in virtual-time order.
func (s *Scenario) Trace() []TraceEntry { return s.trace }

// TraceString renders the trace as one line per event (for golden
// comparisons in tests and -chaos runs).
func TraceString(trace []TraceEntry) string {
	out := ""
	for _, e := range trace {
		out += e.String() + "\n"
	}
	return out
}
