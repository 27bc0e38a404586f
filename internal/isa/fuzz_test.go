package isa

import "testing"

// FuzzAssemble drives the assembler with arbitrary text; the invariant is
// no panic, and anything that assembles must disassemble and re-assemble to
// the same instructions.
func FuzzAssemble(f *testing.F) {
	f.Add("MAR_LOAD 2\nMEM_READ\nRTS\nRETURN")
	f.Add(".arg X 1\nMBR_LOAD $X")
	f.Add("L1: NOP")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		q, err := Assemble("fuzz", Disassemble(p))
		if err != nil {
			t.Fatalf("disassembly does not re-assemble: %v", err)
		}
		if q.Len() != p.Len() {
			t.Fatalf("round trip changed length %d -> %d", p.Len(), q.Len())
		}
		for i := range p.Instrs {
			if p.Instrs[i] != q.Instrs[i] {
				t.Fatalf("instr %d changed: %v -> %v", i, p.Instrs[i], q.Instrs[i])
			}
		}
	})
}

// FuzzDecodeProgram covers the bytecode decoder with the adversarial
// corpus the capsule guard must survive: truncated streams, missing EOF
// terminators, invalid opcodes, and saturated operand/label bits. The
// contract is no panic anywhere — including Validate on whatever decodes —
// consumption bounded by the input, encode/decode as a fixed point, and no
// decoded instruction outside the defined set or EOF: the plan compiler
// relies on that, so it has no refusal path.
func FuzzDecodeProgram(f *testing.F) {
	p := MustAssemble("seed", "NOP\nRETURN")
	wire := p.Encode(nil)
	f.Add(wire)
	for cut := 0; cut <= len(wire); cut++ {
		f.Add(wire[:cut]) // every truncation, including mid-instruction
	}
	f.Add([]byte{0xFF, 0xFF})                    // invalid opcode
	f.Add([]byte{byte(OpUJump), 0x05})           // branch to nowhere, no EOF
	f.Add([]byte{byte(OpMarLoad), 0xFF})         // saturated flag byte
	f.Add([]byte{byte(OpEOF), 0x00, 0xAA, 0xBB}) // trailing bytes after EOF
	long := make([]byte, 0, 2*300)
	for i := 0; i < 300; i++ { // far beyond any instruction budget
		long = append(long, byte(OpNop), 0)
	}
	f.Add(append(long, byte(OpEOF), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		q, n, err := DecodeProgram(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		_ = q.Validate() // must not panic on any decodable program
		for i, in := range q.Instrs {
			if !in.Op.Valid() || in.Op == OpEOF {
				t.Fatalf("instr %d decoded as %v", i, in.Op)
			}
		}
		if q.Len() != (n-WireSize)/WireSize {
			t.Fatalf("decoded %d instrs from %d bytes", q.Len(), n)
		}
		again, m, err := DecodeProgram(q.Encode(nil))
		if err != nil {
			t.Fatalf("re-encoded program failed to decode: %v", err)
		}
		if m != n || again.Len() != q.Len() {
			t.Fatalf("round trip changed size: %d/%d -> %d/%d", n, q.Len(), m, again.Len())
		}
		for i := range q.Instrs {
			if again.Instrs[i] != q.Instrs[i] {
				t.Fatalf("instr %d changed: %v -> %v", i, q.Instrs[i], again.Instrs[i])
			}
		}
	})
}
