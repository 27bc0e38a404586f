package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeMetadata(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if strings.HasPrefix(op.String(), "OP(") {
			t.Errorf("opcode %d missing from opTable", op)
		}
	}
	if Opcode(NumOpcodes).Valid() {
		t.Error("sentinel opcode reported valid")
	}
}

func TestOpcodeNamesUnique(t *testing.T) {
	seen := map[string]Opcode{}
	for op := Opcode(0); op < numOpcodes; op++ {
		if prev, dup := seen[op.String()]; dup {
			t.Errorf("duplicate mnemonic %q for %d and %d", op.String(), prev, op)
		}
		seen[op.String()] = op
	}
}

func TestOpcodeByName(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v; want %v", op.String(), got, ok, op)
		}
	}
	if _, ok := OpcodeByName("BOGUS"); ok {
		t.Error("OpcodeByName accepted BOGUS")
	}
}

func TestMemoryOpcodes(t *testing.T) {
	want := []Opcode{OpMemWrite, OpMemRead, OpMemIncrement, OpMemMinRead, OpMemMinReadInc}
	for _, op := range want {
		if !op.AccessesMemory() {
			t.Errorf("%s should access memory", op)
		}
	}
	for _, op := range []Opcode{OpNop, OpHash, OpAddrMask, OpReturn, OpMbrLoad} {
		if op.AccessesMemory() {
			t.Errorf("%s should not access memory", op)
		}
	}
}

func TestIngressOnlyOpcodes(t *testing.T) {
	for _, op := range []Opcode{OpRts, OpCRts, OpSetDst} {
		if !op.IngressOnly() {
			t.Errorf("%s should be ingress-only", op)
		}
	}
	if OpMemRead.IngressOnly() {
		t.Error("MEM_READ should not be ingress-only")
	}
}

func TestInstructionEncodeDecodeRoundTrip(t *testing.T) {
	f := func(opRaw, operand, label uint8, executed bool) bool {
		in := Instruction{
			Op:       Opcode(int(opRaw) % NumOpcodes),
			Operand:  operand & flagOperMask,
			Label:    label & (flagLabelMask >> flagLabelShft),
			Executed: executed,
		}
		w := in.Encode()
		out, err := DecodeInstruction(w[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeInstructionErrors(t *testing.T) {
	if _, err := DecodeInstruction([]byte{0}); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := DecodeInstruction([]byte{0xFF, 0}); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestInstructionValidate(t *testing.T) {
	cases := []struct {
		in Instruction
		ok bool
	}{
		{Instruction{Op: OpNop}, true},
		{Instruction{Op: OpCJump, Operand: 1}, true},
		{Instruction{Op: OpCJump}, false},            // branch without label
		{Instruction{Op: OpNop, Operand: 16}, false}, // operand overflow
		{Instruction{Op: OpNop, Label: 8}, false},    // label overflow
		{Instruction{Op: Opcode(0xEE)}, false},       // invalid opcode
		{Instruction{Op: OpMbrLoad, Operand: 3}, true},
	}
	for i, c := range cases {
		err := c.in.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

// listing1 is the paper's Listing 1 (in-network cache query) in our
// assembler syntax.
const listing1 = `
.arg ADDR 2
MAR_LOAD $ADDR      // locate bucket
MEM_READ            // first 4 bytes
MBR_EQUALS_DATA_1   // compare bytes
CRET                // partial match?
MEM_READ            // next 4 bytes
MBR_EQUALS_DATA_2   // compare bytes
CRET                // full match?
RTS                 // create reply
MEM_READ            // read the value
MBR_STORE           // write to packet
RETURN              // fin.
`

func TestAssembleListing1(t *testing.T) {
	p, err := Assemble("cache-query", listing1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 11 {
		t.Fatalf("Len = %d, want 11", p.Len())
	}
	// Listing 1 has memory accesses at (1-based) lines 2, 5, 9.
	got := p.MemoryAccessIndices()
	want := []int{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("MemoryAccessIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MemoryAccessIndices = %v, want %v", got, want)
		}
	}
	if idx := p.IngressOnlyIndices(); len(idx) != 1 || idx[0] != 7 {
		t.Fatalf("IngressOnlyIndices = %v, want [7]", idx)
	}
	if p.Instrs[0].Operand != 2 {
		t.Errorf("MAR_LOAD operand = %d, want 2 ($ADDR)", p.Instrs[0].Operand)
	}
	if p.Instrs[2].Op != OpMbrEqualsData || p.Instrs[2].Operand != 0 {
		t.Errorf("MBR_EQUALS_DATA_1 parsed as %v", p.Instrs[2])
	}
	if p.Instrs[5].Operand != 1 {
		t.Errorf("MBR_EQUALS_DATA_2 operand = %d, want 1", p.Instrs[5].Operand)
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	src := `
MBR_LOAD 0
CJUMP L1
MBR_NOT
L1: RETURN
`
	p, err := Assemble("branchy", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[1].Op != OpCJump || p.Instrs[1].Operand != 1 {
		t.Errorf("CJUMP parsed as %+v", p.Instrs[1])
	}
	if p.Instrs[3].Label != 1 {
		t.Errorf("label not attached: %+v", p.Instrs[3])
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := map[string]string{
		"unknown mnemonic": "FROBNICATE",
		"undefined label":  "CJUMP L2\nRETURN",
		"backward branch":  "L1: NOP\nCJUMP L1",
		"duplicate label":  "L1: NOP\nL1: NOP",
		"undefined arg":    "MBR_LOAD $NOPE",
		"operand overflow": "MBR_LOAD 99",
		"bad .arg":         ".arg X\nNOP",
		"eof in body":      "EOF\nNOP",
		"label only":       "L1:",
		"trailing token":   "MBR_LOAD 1 2",
	}
	for name, src := range bad {
		if _, err := Assemble(name, src); err == nil {
			t.Errorf("%s: Assemble accepted %q", name, src)
		}
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	p := MustAssemble("cache-query", listing1)
	text := Disassemble(p)
	q, err := Assemble("cache-query", text)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Fatalf("round trip changed length: %d -> %d", len(p.Instrs), len(q.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i] != q.Instrs[i] {
			t.Errorf("instr %d: %v -> %v", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	p := MustAssemble("cache-query", listing1)
	wire := p.Encode(nil)
	if len(wire) != p.WireLen() {
		t.Fatalf("wire length %d, want %d", len(wire), p.WireLen())
	}
	q, n, err := DecodeProgram(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Errorf("consumed %d bytes, want %d", n, len(wire))
	}
	if q.Len() != p.Len() {
		t.Fatalf("length %d, want %d", q.Len(), p.Len())
	}
	for i := range p.Instrs {
		if p.Instrs[i] != q.Instrs[i] {
			t.Errorf("instr %d: %v != %v", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestDecodeProgramTruncated(t *testing.T) {
	p := MustAssemble("cache-query", listing1)
	wire := p.Encode(nil)
	if _, _, err := DecodeProgram(wire[:len(wire)-2]); err == nil {
		t.Error("truncated program (no EOF) accepted")
	}
	if _, _, err := DecodeProgram(wire[:3]); err == nil {
		t.Error("odd-length truncation accepted")
	}
}

func TestValidateRejectsEOFAndBackwardBranch(t *testing.T) {
	p := &Program{Instrs: []Instruction{{Op: OpEOF}}}
	if err := p.Validate(); err == nil {
		t.Error("EOF in body accepted")
	}
	p = &Program{Instrs: []Instruction{
		{Op: OpNop, Label: 1},
		{Op: OpUJump, Operand: 1},
	}}
	if err := p.Validate(); err == nil {
		t.Error("backward branch accepted")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bad", "FROBNICATE")
}
