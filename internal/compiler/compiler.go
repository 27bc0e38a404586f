// Package compiler implements ActiveRMT's client-side compiler (Section 5):
// it extracts allocation constraints from a program and links a service's
// templates against a granted placement — synthesizing the mutant the switch
// selected (NOP insertion, Section 4.1). Address translation for
// direct-addressed programs is the application's concern (it knows its
// memory layout); the compiler supplies the placement arithmetic apps build
// on.
package compiler

import (
	"errors"
	"fmt"

	"activermt/internal/alloc"
	"activermt/internal/isa"
	"activermt/internal/packet"
)

// AccessSpec annotates one memory access of a program, in program order:
// how many blocks it needs (0 for elastic) and its alignment group.
type AccessSpec struct {
	Demand     int
	AlignGroup int
}

// Extract derives allocation constraints from a program. specs must have
// one entry per memory-access instruction; pass nil for an all-elastic,
// ungrouped footprint.
func Extract(p *isa.Program, elastic bool, specs []AccessSpec) (*alloc.Constraints, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	accIdx := p.MemoryAccessIndices()
	if specs != nil && len(specs) != len(accIdx) {
		return nil, fmt.Errorf("compiler: %d specs for %d accesses", len(specs), len(accIdx))
	}
	c := &alloc.Constraints{
		Name:       p.Name,
		ProgLen:    p.Len(),
		IngressIdx: -1,
		Elastic:    elastic,
	}
	if ing := p.IngressOnlyIndices(); len(ing) > 0 {
		c.IngressIdx = ing[len(ing)-1]
	}
	for i, idx := range accIdx {
		a := alloc.Access{Index: idx}
		if specs != nil {
			a.Demand = specs[i].Demand
			a.AlignGroup = specs[i].AlignGroup
		}
		c.Accesses = append(c.Accesses, a)
	}
	if err := Translations(p, c); err != nil {
		return nil, err
	}
	return c, nil
}

// ErrTranslateReach marks an ADDR_MASK or ADDR_OFFSET a request cannot name,
// which would never translate: too far before its access, or after the last.
var ErrTranslateReach = errors.New("compiler: address translation out of its access's reach")

// Translations marks in c, for each access, the template slots before it
// where p executes ADDR_MASK or ADDR_OFFSET (alloc.Access.Translate). p must
// have c's access skeleton; a service's templates are folded one by one.
func Translations(p *isa.Program, c *alloc.Constraints) error {
	i := 0
	for idx, in := range p.Instrs {
		for i < len(c.Accesses) && c.Accesses[i].Index < idx {
			i++
		}
		if in.Op != isa.OpAddrMask && in.Op != isa.OpAddrOffset {
			continue
		}
		if i == len(c.Accesses) || c.Accesses[i].Index-idx > packet.MaxTranslateReach {
			return fmt.Errorf("%w: %s at slot %d of %s", ErrTranslateReach, in.Op, idx, p.Name)
		}
		c.Accesses[i].Translate |= 1 << (c.Accesses[i].Index - idx - 1)
	}
	return nil
}

// Synthesize builds the program mutant whose memory accesses land on the
// given logical stages, by inserting NOPs immediately before access
// instructions (Figure 4), in one pass into one new instruction slice; the
// template is never written. The mutant must dominate the program's compact
// placement: mutant[i] >= access index i, gaps non-decreasing. accIdx is
// p.MemoryAccessIndices(), which callers compute once per template (a wrong
// one fails the post-condition).
func Synthesize(p *isa.Program, accIdx []int, mutant alloc.Mutant) (*isa.Program, error) {
	if len(mutant) != len(accIdx) {
		return nil, fmt.Errorf("compiler: mutant arity %d != %d accesses", len(mutant), len(accIdx))
	}
	grow := 0
	if n := len(mutant); n > 0 {
		grow = max(mutant[n-1]-accIdx[n-1], 0)
	}
	out := &isa.Program{Name: p.Name, Instrs: make([]isa.Instruction, 0, p.Len()+grow)}
	from := 0
	for i, target := range mutant {
		out.Instrs = append(out.Instrs, p.Instrs[from:accIdx[i]]...)
		cur := len(out.Instrs)
		if target < cur {
			return nil, fmt.Errorf("compiler: access %d cannot move backward (%d -> %d)", i, cur, target)
		}
		for range target - cur {
			out.Instrs = append(out.Instrs, isa.Instruction{Op: isa.OpNop})
		}
		from = accIdx[i]
	}
	out.Instrs = append(out.Instrs, p.Instrs[from:]...)
	// Post-condition: the mutant's accesses are exactly where asked.
	k := 0
	for i, in := range out.Instrs {
		if in.Op.AccessesMemory() {
			if i != mutant[k] {
				return nil, fmt.Errorf("compiler: synthesis mismatch at access %d: %d != %d", k, i, mutant[k])
			}
			k++
		}
	}
	return out, nil
}

// CheckPlacement is the check a client makes of every allocation response
// and reallocation notice: every access on its mutant's logical stage, every
// granted region non-empty. A mismatch means a desynchronized mutant
// enumeration, which would translate into protection faults on the wire.
func CheckPlacement(pl *alloc.Placement) error {
	if len(pl.Accesses) != len(pl.Mutant) {
		return fmt.Errorf("compiler: %d accesses vs %d grants", len(pl.Mutant), len(pl.Accesses))
	}
	for i, g := range pl.Accesses {
		if g.Logical != pl.Mutant[i] {
			return fmt.Errorf("compiler: access %d at %d, granted stage %d", i, pl.Mutant[i], g.Logical)
		}
		if g.Range.Lo >= g.Range.Hi {
			return fmt.Errorf("compiler: access %d has empty grant", i)
		}
	}
	return nil
}

// Link is the step clients take on receipt of an allocation response whose
// mutant they have not linked yet: rebuild, for every template of a service,
// the exact mutant the switch selected. The templates share one access
// skeleton, accIdx (client.New checks it), so the placement is checked once
// (CheckPlacement) and Synthesize's post-condition then puts each template's
// accesses exactly there.
func Link(templates map[string]*isa.Program, accIdx []int, pl *alloc.Placement) (map[string]*isa.Program, error) {
	if err := CheckPlacement(pl); err != nil {
		return nil, err
	}
	out := make(map[string]*isa.Program, len(templates))
	for name, p := range templates {
		m, err := Synthesize(p, accIdx, pl.Mutant)
		if err != nil {
			return nil, err // the templates share a skeleton: they fail alike
		}
		out[name] = m
	}
	return out, nil
}
