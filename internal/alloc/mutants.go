package alloc

import (
	"slices"

	"activermt/internal/packet"
)

// Shape is the pipeline shape of the switch↔client contract (Section 3.3):
// both sides enumerate the same mutants in the same order only over the same
// shape, so the allocator's Config embeds it and a client compiles against a
// copy.
type Shape struct {
	NumStages  int
	NumIngress int
	MaxPasses  int // pass budget under the least-constrained policy
}

// DefaultShape is the paper's switch: 20 stages, 10 ingress, one recirculation.
func DefaultShape() Shape {
	return Shape{NumStages: packet.NumStages, NumIngress: packet.NumStages / 2, MaxPasses: 2}
}

// Physical maps a logical stage (or instruction slot) to the physical stage
// it executes in: passes wrap around the pipeline.
func (s Shape) Physical(logical int) int { return logical % s.NumStages }

// Mutants is the shared enumeration — the feasibility region of c under pol,
// in the order allocation responses index — and the bounds it was made from.
// Allocator, client and tools all enumerate here.
func (s Shape) Mutants(c *Constraints, pol Policy) ([]Mutant, *Bounds, error) {
	var e enumeration
	ms, err := e.mutants(s, c, pol)
	if err != nil {
		return nil, nil, err
	}
	return ms, &e.b, nil
}

// enumeration is the storage one enumeration fills; an allocator keeps one
// and reuses it.
type enumeration struct {
	b    Bounds
	flat []int
	ms   []Mutant
}

// mutants is Shape.Mutants into e's storage, valid until its next call.
func (e *enumeration) mutants(s Shape, c *Constraints, pol Policy) ([]Mutant, error) {
	if err := e.b.compute(c, pol, s.NumStages, s.NumIngress, s.MaxPasses); err != nil {
		return nil, err
	}
	e.ms, e.flat = appendMutants(e.ms[:0], e.flat[:0], &e.b, s.NumStages)
	return e.ms, nil
}

// Mutant is one placement of a program's memory accesses: the logical stage
// each access executes in. Mutants are semantically identical programs that
// differ only in inserted NOPs (Section 4.1, Figure 4).
type Mutant []int

// MaxMutants caps enumeration as a safety valve against pathological
// constraint sets; the paper's applications stay in the hundreds-to-
// thousands range.
const MaxMutants = 1 << 20

// appendMutants appends to out, in deterministic lexicographic order, every
// placement vector x with LB <= x <= UB and x[i]-x[i-1] >= Gap[i], whose
// accesses land in distinct physical stages of a numStages-deep pipeline
// (two accesses cannot share one stage's single register port, even across
// passes, because protection grants one region per FID per stage).
//
// The shared, deterministic order is load-bearing: allocation responses name
// the chosen mutant by its index in this order, and client and switch
// enumerate independently (Section 3.3).
//
// The mutants are capacity-capped windows of one backing array, flat, which
// the caller may reuse: appending to one copies it, and a caller that keeps a
// mutant past the enumeration clones it so as not to pin the rest.
func appendMutants(out []Mutant, flat []int, b *Bounds, numStages int) ([]Mutant, []int) {
	m := len(b.LB)
	var xs [packet.MaxAccesses]int // the vector being built, on the stack
	x := xs[:]
	if m > len(x) {
		x = make([]int, m)
	}
	x, n := x[:m], 0

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == m {
			flat = append(flat, x...)
			n++
			return n < MaxMutants
		}
		lo := b.LB[i]
		if i > 0 {
			if v := x[i-1] + b.Gap[i]; v > lo {
				lo = v
			}
		}
		for v := lo; v <= b.UB[i]; v++ {
			if collides(x[:i], v, numStages) {
				continue
			}
			x[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	out = slices.Grow(out, n)
	for k := range n {
		out = append(out, flat[k*m:(k+1)*m:(k+1)*m])
	}
	return out, flat
}

func collides(prefix []int, v, numStages int) bool {
	for _, p := range prefix {
		if p%numStages == v%numStages {
			return true
		}
	}
	return false
}
