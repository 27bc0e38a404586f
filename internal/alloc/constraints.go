// Package alloc implements ActiveRMT's dynamic memory allocator (Section 4
// of the paper): constraint extraction, mutant enumeration over the
// feasibility region, pluggable allocation schemes (worst-fit, best-fit,
// first-fit, minimum-reallocation), elastic/inelastic demand handling with
// inelastic pinning, and approximate max-min fairness among elastic
// applications via progressive filling.
//
// All stage and instruction indices are zero-based (the paper's prose is
// one-based).
package alloc

import (
	"fmt"
	"math/bits"
	"slices"

	"activermt/internal/packet"
)

// Policy selects the mutant search space (Section 6.1).
type Policy int

// Allocation policies.
const (
	// MostConstrained considers only mutants that avoid additional
	// recirculations: the program fits in one pipeline pass and
	// ingress-only instructions stay in the ingress pipeline.
	MostConstrained Policy = iota
	// LeastConstrained admits mutants that recirculate (up to the
	// configured pass budget) and ignores the ingress restriction, buying
	// placement flexibility with bandwidth.
	LeastConstrained
)

// String names the policy as in the paper's figures.
func (p Policy) String() string {
	if p == MostConstrained {
		return "most-constrained"
	}
	return "least-constrained"
}

// Access describes one memory access of a program, in program order.
type Access struct {
	Index      int   // instruction index in the most-compact program
	Demand     int   // blocks; 0 = elastic ("as much as possible")
	AlignGroup int   // accesses sharing a nonzero group need identical block ranges
	Translate  uint8 // bit k-1: slot Index-k executes ADDR_MASK/ADDR_OFFSET (k ≤ packet.MaxTranslateReach)
}

// Constraints characterize a program's memory footprint for the allocator:
// exactly the information carried by an allocation-request packet
// (Section 3.3).
type Constraints struct {
	Name       string
	ProgLen    int
	IngressIdx int // index of the last ingress-only instruction; -1 = none
	Elastic    bool
	Accesses   []Access
}

// Validate checks internal consistency.
func (c *Constraints) Validate() error {
	if c.ProgLen <= 0 {
		return fmt.Errorf("alloc: non-positive program length %d", c.ProgLen)
	}
	if len(c.Accesses) > packet.MaxAccesses {
		return fmt.Errorf("alloc: %d accesses exceed the %d request slots", len(c.Accesses), packet.MaxAccesses)
	}
	prev := -1
	for i, a := range c.Accesses {
		if a.Index <= prev {
			return fmt.Errorf("alloc: access %d out of order (index %d after %d)", i, a.Index, prev)
		}
		if a.Index >= c.ProgLen {
			return fmt.Errorf("alloc: access index %d beyond program length %d", a.Index, c.ProgLen)
		}
		if a.Demand < 0 || a.Demand > 255 {
			return fmt.Errorf("alloc: access %d demand %d out of range", i, a.Demand)
		}
		if k := bits.Len8(a.Translate); k > packet.MaxTranslateReach || k > 0 && a.Index-k <= prev {
			return fmt.Errorf("alloc: access %d translates in slots %04b outside (%d, %d)", i, a.Translate, prev, a.Index)
		}
		prev = a.Index
	}
	if c.IngressIdx >= c.ProgLen {
		return fmt.Errorf("alloc: ingress index %d beyond program length %d", c.IngressIdx, c.ProgLen)
	}
	return nil
}

// Bounds computes the feasibility-region bounds of Section 4.2: for each
// access, the lower bound LB (an access can only move to a later stage), the
// minimum gap to the previous access (gaps can only grow), and the upper
// bound UB derived by the paper's rigid-tail rule — the last access must
// leave room for the instructions after it, ingress-only instructions clamp
// their rigid-chain neighbors under the most-constrained policy, and bounds
// propagate backward through the minimum gaps.
type Bounds struct {
	LB, UB, Gap []int
	MaxStages   int // logical stages available (passes * pipeline depth)

	buf []int // backs LB, UB and Gap
}

// compute derives into b, reusing its storage, the bounds for a policy over
// a pipeline of numStages stages (numIngress of them ingress), allowing
// maxPasses passes under the least-constrained policy.
func (b *Bounds) compute(c *Constraints, pol Policy, numStages, numIngress, maxPasses int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	m := len(c.Accesses)
	if m == 0 {
		return fmt.Errorf("alloc: no memory accesses to bound")
	}
	v := slices.Grow(b.buf[:0], 3*m)[:3*m]
	*b = Bounds{LB: v[:m:m], UB: v[m : 2*m : 2*m], Gap: v[2*m:], buf: v}

	passes := 1
	if pol == LeastConstrained {
		passes = maxPasses
		if passes < 1 {
			passes = 1
		}
	}
	b.MaxStages = numStages * passes

	for i, a := range c.Accesses {
		b.LB[i] = a.Index
		if i == 0 {
			b.Gap[i] = a.Index + 1 // distance from virtual stage -1
		} else {
			b.Gap[i] = a.Index - c.Accesses[i-1].Index
		}
	}
	// Rigid tail from the end of the program.
	last := m - 1
	trailing := c.ProgLen - 1 - c.Accesses[last].Index
	for i := range b.UB {
		b.UB[i] = b.MaxStages - 1 // refined by the tail and ingress rules below
	}
	b.UB[last] = b.MaxStages - 1 - trailing
	// Ingress-only clamp (most-constrained only): the rigid chain pins
	// every access relative to the ingress-bound instruction.
	if pol == MostConstrained && c.IngressIdx >= 0 {
		for i, a := range c.Accesses {
			ub := numIngress - 1 + a.Index - c.IngressIdx
			if ub < b.UB[i] {
				b.UB[i] = ub
			}
		}
	}
	// Backward propagation through minimum gaps.
	for i := last - 1; i >= 0; i-- {
		if ub := b.UB[i+1] - b.Gap[i+1]; ub < b.UB[i] {
			b.UB[i] = ub
		}
	}
	for i := range b.LB {
		if b.LB[i] > b.UB[i] {
			return fmt.Errorf("alloc: infeasible constraints under %s: access %d LB %d > UB %d",
				pol, i, b.LB[i], b.UB[i])
		}
	}
	return nil
}
