package isa

import (
	"fmt"
)

// Program is an ordered sequence of instructions. Because ActiveRMT executes
// one instruction per match-action stage, the index of an instruction is also
// the logical stage (modulo pipeline length) at which it will run.
//
// The EOF terminator is not stored in Instrs; it is appended on the wire by
// Encode and consumed by DecodeProgram.
type Program struct {
	Name   string
	Instrs []Instruction
}

// Len returns the number of instructions, excluding the EOF terminator.
func (p *Program) Len() int { return len(p.Instrs) }

// MemoryAccessIndices returns the zero-based instruction indices that access
// stage register memory, in program order. These are the positions the
// allocator's constraint vectors (LB/UB/min-gap) are derived from.
func (p *Program) MemoryAccessIndices() []int {
	var idx []int
	for i, in := range p.Instrs {
		if in.Op.AccessesMemory() {
			idx = append(idx, i)
		}
	}
	return idx
}

// IngressOnlyIndices returns the zero-based indices of instructions that must
// execute in the ingress pipeline to avoid recirculation (RTS and friends).
func (p *Program) IngressOnlyIndices() []int {
	var idx []int
	for i, in := range p.Instrs {
		if in.Op.IngressOnly() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks structural well-formedness: all instructions valid, every
// branch target defined strictly after the branch (execution is
// stage-sequential, so backward jumps are impossible), and no duplicate
// label definitions.
func (p *Program) Validate() error {
	labelAt := map[uint8]int{}
	for i, in := range p.Instrs {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, in.Op, err)
		}
		if in.Op == OpEOF {
			return fmt.Errorf("instr %d: EOF inside program body", i)
		}
		if in.Label != 0 {
			if prev, dup := labelAt[in.Label]; dup {
				return fmt.Errorf("instr %d: label L%d already defined at %d", i, in.Label, prev)
			}
			labelAt[in.Label] = i
		}
	}
	for i, in := range p.Instrs {
		if !in.Op.IsBranch() {
			continue
		}
		tgt, ok := labelAt[in.Operand]
		if !ok {
			return fmt.Errorf("instr %d (%s): undefined label L%d", i, in.Op, in.Operand)
		}
		if tgt <= i {
			return fmt.Errorf("instr %d (%s): backward branch to L%d at %d", i, in.Op, in.Operand, tgt)
		}
	}
	return nil
}

// WireLen returns the encoded size in bytes, including the EOF terminator.
func (p *Program) WireLen() int { return (len(p.Instrs) + 1) * WireSize }

// Encode appends the wire form of the program (instructions followed by an
// EOF terminator) to dst and returns the extended slice.
func (p *Program) Encode(dst []byte) []byte {
	for _, in := range p.Instrs {
		w := in.Encode()
		dst = append(dst, w[:]...)
	}
	eof := Instruction{Op: OpEOF}.Encode()
	return append(dst, eof[:]...)
}

// DecodeProgram parses instructions from b until an EOF instruction is
// found, returning the program and the number of bytes consumed (including
// the EOF header).
func DecodeProgram(b []byte) (*Program, int, error) {
	p := &Program{}
	n, err := walkProgram(b, p)
	if err != nil {
		return nil, n, err
	}
	return p, n, nil
}

// SkipProgram steps over the program at the head of b and returns its wire
// length (EOF header included). It accepts exactly what DecodeProgram
// accepts, without building a Program: the decode of an end host, which
// never reads the instruction headers a reply still carries.
func SkipProgram(b []byte) (int, error) { return walkProgram(b, nil) }

// walkProgram validates instruction headers up to and including the EOF
// header and returns the bytes consumed; a non-nil p collects the
// instructions.
func walkProgram(b []byte, p *Program) (int, error) {
	off := 0
	for {
		if off+WireSize > len(b) {
			return off, fmt.Errorf("isa: program truncated at byte %d (no EOF)", off)
		}
		in, err := DecodeInstruction(b[off:])
		if err != nil {
			return off, fmt.Errorf("isa: at byte %d: %w", off, err)
		}
		off += WireSize
		if in.Op == OpEOF {
			return off, nil
		}
		if p != nil {
			p.Instrs = append(p.Instrs, in)
		}
	}
}

// String renders the program as assembler text, one instruction per line.
func (p *Program) String() string {
	out := ""
	if p.Name != "" {
		out = "// " + p.Name + "\n"
	}
	for i, in := range p.Instrs {
		out += fmt.Sprintf("%2d  %s\n", i, in.String())
	}
	return out
}
