// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment produces CSV series plus headline
// metrics; activesim's paper row prints them and bench_test.go wraps each in a
// testing.B benchmark. Absolute times differ from the paper's switch CPU —
// the reproduction criteria are the shapes: who wins, where capacity
// exhausts, what converges to what.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/workload"
)

// RunConfig tunes experiment scale.
type RunConfig struct {
	// Quick shrinks trials/epochs for benchmark iterations.
	Quick bool
	Seed  int64
}

// Result is one regenerated figure or table.
type Result struct {
	ID      string
	Title   string
	CSV     string             // the figure's data series
	Notes   []string           // shape observations (capacities, convergence)
	Metrics map[string]float64 // headline numbers for EXPERIMENTS.md
}

// Print writes the headline metrics in key order, then the notes: the one
// rendering of a result, so a rerun's output diffs clean. Every line starts
// with indent; metric names are padded to width.
func (r *Result) Print(w io.Writer, indent string, width int) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%-*s %g\n", indent, width, k, r.Metrics[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%snote: %s\n", indent, n)
	}
}

// Spec registers an experiment.
type Spec struct {
	ID    string
	Title string
	Paper string // what the paper reports (the shape to reproduce)
	Run   func(cfg RunConfig) (*Result, error)
}

// Registry lists every experiment in figure order.
var Registry []Spec

func register(s Spec) { Registry = append(Registry, s) }

// Lookup finds an experiment by ID.
func Lookup(id string) (Spec, bool) {
	for _, s := range Registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// serviceConstraints returns the allocation constraints of the three
// exemplar applications, read off the services fig8a admits (svcFor) — they
// depend on the program templates only — so the allocator-level experiments
// and the data-plane services stay in lockstep.
func serviceConstraints(kind workload.AppKind) *alloc.Constraints {
	svc, _ := svcFor(kind, 0)
	cons, err := svc.Constraints()
	if err != nil {
		panic(fmt.Sprintf("experiments: %s constraints: %v", kind, err))
	}
	cons.Name = kind.String()
	return cons
}

// allocatorWith builds an allocator with the given policy/scheme and
// default sizing.
func allocatorWith(pol alloc.Policy, scheme alloc.Scheme, blockWords int) *alloc.Allocator {
	cfg := alloc.DefaultConfig()
	cfg.Policy = pol
	cfg.Scheme = scheme
	if blockWords > 0 {
		cfg.BlockWords = blockWords
	}
	a, err := alloc.New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// fseconds renders a duration in float seconds for CSV.
func fseconds(d time.Duration) float64 { return d.Seconds() }

// fmtF trims float formatting in notes.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }
