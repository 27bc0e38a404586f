package alloc

import "activermt/internal/packet"

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
	b, err := ComputeBounds(c, pol, s.NumStages, s.NumIngress, s.MaxPasses)
	if err != nil {
		return nil, nil, err
	}
	return EnumerateMutants(b, s.NumStages), b, nil
}

// Mutant is one placement of a program's memory accesses: the logical stage
// each access executes in. Mutants are semantically identical programs that
// differ only in inserted NOPs (Section 4.1, Figure 4).
type Mutant []int

// MaxMutants caps enumeration as a safety valve against pathological
// constraint sets; the paper's applications stay in the hundreds-to-
// thousands range.
const MaxMutants = 1 << 20

// EnumerateMutants lists, in deterministic lexicographic order, every
// placement vector x with LB <= x <= UB and x[i]-x[i-1] >= Gap[i], whose
// accesses land in distinct physical stages of a numStages-deep pipeline
// (two accesses cannot share one stage's single register port, even across
// passes, because protection grants one region per FID per stage).
//
// The shared, deterministic order is load-bearing: allocation responses name
// the chosen mutant by its index in this order, and client and switch
// enumerate independently (Section 3.3).
//
// The mutants are capacity-capped windows of one backing array: appending to
// one copies it, and a caller that keeps a mutant past the enumeration clones
// it so as not to pin the rest.
func EnumerateMutants(b *Bounds, numStages int) []Mutant {
	m := len(b.LB)
	var flat []int
	x := make([]int, m)
	n := 0

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
	out := make([]Mutant, n)
	for k := range out {
		out[k] = flat[k*m : (k+1)*m : (k+1)*m]
	}
	return out
}

func collides(prefix []int, v, numStages int) bool {
	for _, p := range prefix {
		if p%numStages == v%numStages {
			return true
		}
	}
	return false
}
