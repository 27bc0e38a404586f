package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Registry holds the registered metric families and the flight recorder.
//
// Consistency model: everything but the published pointer belongs to the
// simulation goroutine. Families are registered and collected there, between
// events, where every control-plane commit (a grant install, a quarantine, a
// privilege change) is either complete or not begun — so a snapshot is
// commit-consistent by construction, with no commit windows to fence. The
// HTTP endpoint reads only what Publish last stored.
type Registry struct {
	families []family
	names    map[string]bool

	flight *FlightRecorder
	// live resolves whether a (fid, epoch) grant is still the current
	// admitted grant, for the flight entries a snapshot carries.
	live func(fid uint16, epoch uint8) bool

	published atomic.Pointer[Snapshot]
}

// NewRegistry returns an empty registry, with an empty snapshot published.
func NewRegistry() *Registry {
	r := &Registry{names: make(map[string]bool)}
	r.published.Store(&Snapshot{})
	return r
}

// register adds one family, panicking on a duplicate name — duplicate
// registration is a wiring bug, not a runtime condition.
func (r *Registry) register(name, help string, kind Kind, collect func(ms *MetricSnapshot)) {
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
	r.families = append(r.families, family{name: name, help: help, kind: kind, collect: collect})
}

// AttachFlight installs the flight recorder snapshots carry, and the
// resolver that marks each entry live while its (FID, epoch) grant is the
// installed one.
func (r *Registry) AttachFlight(f *FlightRecorder, live func(fid uint16, epoch uint8) bool) {
	r.flight, r.live = f, live
}

// Sample is one exposition sample of a metric (one child for vecs).
type Sample struct {
	Labels string     `json:"labels,omitempty"` // rendered pair, e.g. stage="3"
	Value  float64    `json:"value"`
	Hist   *Histogram `json:"hist,omitempty"`
}

// MetricSnapshot is one metric family's collected state.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Type    string   `json:"type"`
	Samples []Sample `json:"samples"`
}

// Snapshot is one view of every registered family and the flight-recorder
// contents, with grant liveness resolved against the admission state current
// at collection time.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
	Flights []FlightEntry    `json:"flights,omitempty"`
}

// Snapshot collects every family and the flight recorder now. Call it on the
// simulation goroutine: the families read their owners' plain fields.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Metrics: make([]MetricSnapshot, 0, len(r.families))}
	for _, f := range r.families {
		ms := MetricSnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		f.collect(&ms)
		snap.Metrics = append(snap.Metrics, ms)
	}
	if r.flight != nil {
		snap.Flights = r.flight.Entries()
		for i := range snap.Flights {
			e := &snap.Flights[i]
			e.Live = r.live(e.FID, e.Epoch)
		}
	}
	return snap
}

// Publish takes a Snapshot and makes it the one the HTTP endpoint serves.
// The simulation calls it (on its goroutine) wherever a scrape should see
// its state — Serve once at start, the cache row after every measurement
// window.
func (r *Registry) Publish() { r.published.Store(r.Snapshot()) }

// Published returns the snapshot Publish last stored; safe from any
// goroutine, and never to be modified.
func (r *Registry) Published() *Snapshot { return r.published.Load() }
