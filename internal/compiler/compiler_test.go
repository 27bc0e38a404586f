package compiler

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"activermt/internal/alloc"
	"activermt/internal/isa"
)

var listing1 = isa.MustAssemble("cache-query", `
.arg ADDR 2
MAR_LOAD $ADDR
MEM_READ
MBR_EQUALS_DATA_1
CRET
MEM_READ
MBR_EQUALS_DATA_2
CRET
RTS
MEM_READ
MBR_STORE
RETURN
`)

func TestExtractListing1(t *testing.T) {
	specs := []AccessSpec{{AlignGroup: 1}, {AlignGroup: 1}, {AlignGroup: 1}}
	c, err := Extract(listing1, true, specs)
	if err != nil {
		t.Fatal(err)
	}
	if c.ProgLen != 11 || c.IngressIdx != 7 || !c.Elastic {
		t.Fatalf("constraints = %+v", c)
	}
	want := []alloc.Access{
		{Index: 1, AlignGroup: 1},
		{Index: 4, AlignGroup: 1},
		{Index: 8, AlignGroup: 1},
	}
	for i := range want {
		if c.Accesses[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, c.Accesses[i], want[i])
		}
	}
}

func TestExtractDefaults(t *testing.T) {
	c, err := Extract(listing1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range c.Accesses {
		if a.Demand != 0 || a.AlignGroup != 0 {
			t.Errorf("access %d = %+v, want elastic ungrouped", i, a)
		}
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(listing1, true, []AccessSpec{{}}); err == nil {
		t.Error("spec arity mismatch accepted")
	}
	// Memory-less programs are legal (stateless services).
	noMem := isa.MustAssemble("nomem", "NOP\nRETURN")
	if c, err := Extract(noMem, true, nil); err != nil || len(c.Accesses) != 0 {
		t.Errorf("stateless extract = %+v, %v", c, err)
	}
	bad := &isa.Program{Instrs: []isa.Instruction{{Op: isa.OpCJump, Operand: 1}}}
	if _, err := Extract(bad, true, nil); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestSynthesizeIdentity(t *testing.T) {
	m := alloc.Mutant{1, 4, 8}
	out, err := Synthesize(listing1, listing1.MemoryAccessIndices(), m)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != listing1.Len() {
		t.Errorf("identity mutant changed length: %d", out.Len())
	}
}

func TestSynthesizeShifts(t *testing.T) {
	m := alloc.Mutant{2, 5, 10}
	out, err := Synthesize(listing1, listing1.MemoryAccessIndices(), m)
	if err != nil {
		t.Fatal(err)
	}
	got := out.MemoryAccessIndices()
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("accesses at %v, want %v", got, m)
		}
	}
	// Listing 1: +1 NOP before access 0 (shifting everything), +1 more
	// before access 2; total growth is the last access's displacement.
	if out.Len() != listing1.Len()+2 {
		t.Errorf("mutant length = %d, want %d", out.Len(), listing1.Len()+2)
	}
	// Semantics preserved: RTS still before the value read.
	ing := out.IngressOnlyIndices()
	if len(ing) != 1 || ing[0] >= got[2] {
		t.Errorf("RTS at %v, value read at %d", ing, got[2])
	}
	if err := out.Validate(); err != nil {
		t.Errorf("mutant invalid: %v", err)
	}
}

// TestSynthesizeNeverWritesTemplate: a mutant is a new program — the NOPs go
// in before the access they shift, the template keeps every instruction, and
// the zero-NOP mutant keeps the template's length without sharing its
// instructions.
func TestSynthesizeNeverWritesTemplate(t *testing.T) {
	before := slices.Clone(listing1.Instrs)
	out, err := Synthesize(listing1, listing1.MemoryAccessIndices(), alloc.Mutant{3, 6, 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.Instrs[1].Op != isa.OpNop || out.Instrs[2].Op != isa.OpNop || out.Instrs[3].Op != isa.OpMemRead {
		t.Errorf("mutant starts %v, want two NOPs before the first MEM_READ", out.Instrs[:4])
	}
	if !slices.Equal(listing1.Instrs, before) {
		t.Fatal("Synthesize wrote the template")
	}
	same, err := Synthesize(listing1, listing1.MemoryAccessIndices(), alloc.Mutant{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(same.Instrs, before) {
		t.Fatalf("zero-NOP mutant %v, want the template", same.Instrs)
	}
	same.Instrs[0] = isa.Instruction{Op: isa.OpNop}
	if !slices.Equal(listing1.Instrs, before) {
		t.Error("zero-NOP mutant shares the template's instructions")
	}
}

func TestSynthesizeBackwardRejected(t *testing.T) {
	if _, err := Synthesize(listing1, listing1.MemoryAccessIndices(), alloc.Mutant{0, 4, 8}); err == nil {
		t.Error("backward move accepted")
	}
	if _, err := Synthesize(listing1, listing1.MemoryAccessIndices(), alloc.Mutant{1, 4}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Gap shrink: access 1 target closer to access 0 than original gap.
	if _, err := Synthesize(listing1, listing1.MemoryAccessIndices(), alloc.Mutant{3, 5, 10}); err == nil {
		t.Error("gap shrink accepted")
	}
}

func TestSynthesizeProperty(t *testing.T) {
	// For random valid shift vectors, synthesis always places accesses
	// exactly and preserves instruction count + inserted NOPs.
	f := func(d0, d1, d2 uint8) bool {
		m := alloc.Mutant{1 + int(d0%5), 0, 0}
		m[1] = m[0] + 3 + int(d1%5)
		m[2] = m[1] + 4 + int(d2%5)
		out, err := Synthesize(listing1, listing1.MemoryAccessIndices(), m)
		if err != nil {
			return false
		}
		got := out.MemoryAccessIndices()
		for i := range m {
			if got[i] != m[i] {
				return false
			}
		}
		return out.Len() == listing1.Len()+(m[2]-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVerify: Link checks the placement before it synthesizes against it.
func TestVerify(t *testing.T) {
	tmpl := map[string]*isa.Program{"main": listing1}
	pl := &alloc.Placement{
		Mutant: alloc.Mutant{1, 4, 8},
		Accesses: []alloc.AccessPlacement{
			{Logical: 1, Range: alloc.WordRange{Lo: 0, Hi: 256}},
			{Logical: 4, Range: alloc.WordRange{Lo: 0, Hi: 256}},
			{Logical: 8, Range: alloc.WordRange{Lo: 0, Hi: 256}},
		},
	}
	linked, err := Link(tmpl, listing1.MemoryAccessIndices(), pl)
	if err != nil {
		t.Fatal(err)
	}
	if got := linked["main"].MemoryAccessIndices(); !reflect.DeepEqual(got, []int(pl.Mutant)) {
		t.Fatalf("linked accesses at %v, mutant %v", got, pl.Mutant)
	}
	// Wrong stage.
	pl2 := *pl
	pl2.Accesses = append([]alloc.AccessPlacement(nil), pl.Accesses...)
	pl2.Accesses[1].Logical = 5
	if _, err := Link(tmpl, listing1.MemoryAccessIndices(), &pl2); err == nil {
		t.Error("stage mismatch accepted")
	}
	// Empty grant.
	pl3 := *pl
	pl3.Accesses = append([]alloc.AccessPlacement(nil), pl.Accesses...)
	pl3.Accesses[2].Range = alloc.WordRange{}
	if _, err := Link(tmpl, listing1.MemoryAccessIndices(), &pl3); err == nil {
		t.Error("empty grant accepted")
	}
	// Arity.
	if _, err := Link(tmpl, listing1.MemoryAccessIndices(), &alloc.Placement{}); err == nil {
		t.Error("arity mismatch accepted")
	}
}
