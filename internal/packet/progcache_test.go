package packet

import (
	"testing"

	"activermt/internal/isa"
)

// capsuleWire builds the wire form of a program capsule for fid carrying
// prog, with the grant epoch echoed in the header's opaque field.
func capsuleWire(t *testing.T, fid uint16, epoch uint8, prog *isa.Program) []byte {
	t.Helper()
	a := &Active{
		Header:  ActiveHeader{FID: fid, Opaque: uint32(epoch)},
		Args:    [4]uint32{1, 2, 3, 4},
		Program: prog,
	}
	a.Header.SetType(TypeProgram)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// decodeCached decodes wire through c into a fresh Active.
func decodeCached(t *testing.T, wire []byte, c *ProgCache) *Active {
	t.Helper()
	a := &Active{}
	if err := DecodeInto(wire, a, c); err != nil {
		t.Fatal(err)
	}
	return a
}

var cacheTestProg = isa.MustAssemble("pc-test", `
MAR_LOAD 2
MEM_READ
RTS
RETURN
`)

// invalidTestProg decodes fine but fails structural validation: a forward
// jump to a label that is never defined.
var invalidTestProg = &isa.Program{Name: "pc-bad", Instrs: []isa.Instruction{
	{Op: isa.OpUJump, Operand: 5},
	{Op: isa.OpReturn},
}}

func TestProgCacheHitAndMiss(t *testing.T) {
	c := NewProgCache()
	wire := capsuleWire(t, 1, 3, cacheTestProg)

	a1 := decodeCached(t, wire, c)
	a2 := decodeCached(t, wire, c)
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", c.Len())
	}
	// The cached program is shared, not re-decoded.
	if a1.Program != a2.Program {
		t.Fatal("cache hit returned a different program pointer")
	}
	if a1.ValidState != ProgValid || a2.ValidState != ProgValid {
		t.Fatalf("valid states = %d/%d, want ProgValid", a1.ValidState, a2.ValidState)
	}
	if a1.Args != [4]uint32{1, 2, 3, 4} {
		t.Fatalf("args = %v", a1.Args)
	}
	if len(a1.Program.Instrs) != len(cacheTestProg.Instrs) {
		t.Fatalf("decoded %d instrs, want %d", len(a1.Program.Instrs), len(cacheTestProg.Instrs))
	}
}

func TestProgCacheMemoizesInvalidity(t *testing.T) {
	if invalidTestProg.Validate() == nil {
		t.Fatal("test program unexpectedly valid")
	}
	c := NewProgCache()
	wire := capsuleWire(t, 1, 1, invalidTestProg)
	for i := 0; i < 3; i++ {
		if a := decodeCached(t, wire, c); a.ValidState != ProgInvalid {
			t.Fatalf("round %d: valid state = %d, want ProgInvalid", i, a.ValidState)
		}
	}
	// Validation ran once (the miss); both hits reused the verdict.
	if hits, misses, _ := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// TestProgCacheSharesAcrossFIDsAndEpochs: decoding and validation depend only
// on the program bytes, so the same bytes under two FIDs and two grant epochs
// are one entry with one canonical pointer.
func TestProgCacheSharesAcrossFIDsAndEpochs(t *testing.T) {
	c := NewProgCache()
	first := decodeCached(t, capsuleWire(t, 1, 1, cacheTestProg), c).Program
	for _, v := range []struct {
		fid   uint16
		epoch uint8
	}{{1, 2}, {2, 1}, {2, 2}} {
		if got := decodeCached(t, capsuleWire(t, v.fid, v.epoch, cacheTestProg), c).Program; got != first {
			t.Fatalf("fid %d epoch %d decoded to a different pointer", v.fid, v.epoch)
		}
	}
	if hits, misses, _ := c.Stats(); hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", c.Len())
	}
}

// distinctProg returns program i of a family whose wire bytes all differ
// (for i < 4096): i's three hex digits are the operands of three loads.
func distinctProg(i int) *isa.Program {
	return &isa.Program{Instrs: []isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: uint8(i & 0xF)},
		{Op: isa.OpMbrLoad, Operand: uint8(i >> 4 & 0xF)},
		{Op: isa.OpMbrLoad, Operand: uint8(i >> 8 & 0xF)},
		{Op: isa.OpReturn},
	}}
}

// TestProgCacheFlushOnFull: a full cache is flushed wholesale rather than
// tracked per-entry, the flush counts the entries it drops, and inserts keep
// succeeding afterwards — so distinct programs cannot grow it past the bound.
func TestProgCacheFlushOnFull(t *testing.T) {
	c := NewProgCache()
	for i := 0; i <= progCacheSize; i++ {
		decodeCached(t, capsuleWire(t, 1, 1, distinctProg(i)), c)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d after %d distinct programs, want 1 (flushed at %d)", c.Len(), progCacheSize+1, progCacheSize)
	}
	if _, misses, inv := c.Stats(); misses != progCacheSize+1 || inv != progCacheSize {
		t.Fatalf("misses/invalidations = %d/%d, want %d/%d", misses, inv, progCacheSize+1, progCacheSize)
	}
	// The last insert must be live.
	decodeCached(t, capsuleWire(t, 1, 1, distinctProg(progCacheSize)), c)
	if hits, _, _ := c.Stats(); hits != 1 {
		t.Fatalf("hits = %d, want 1 (last insert live after flush)", hits)
	}
}

// TestProgCacheCanonicalPointer pins the canonical-pointer contract the
// runtime's plan table depends on: while an entry stays cached, every decode
// of the same bytes aliases the SAME *isa.Program, different bytes are a
// different pointer, and a flush affects future decodes only.
func TestProgCacheCanonicalPointer(t *testing.T) {
	c := NewProgCache()
	wire := capsuleWire(t, 1, 3, cacheTestProg)
	a1 := decodeCached(t, wire, c)
	if a2 := decodeCached(t, wire, c); a2.Program != a1.Program {
		t.Fatal("same bytes decoded to distinct program pointers")
	}
	other := decodeCached(t, capsuleWire(t, 1, 3, distinctProg(7)), c)
	if other.Program == a1.Program {
		t.Fatal("different bytes share a program pointer")
	}

	// A flush breaks the mapping for future decodes only: the next decode of
	// the same bytes is a fresh miss with a fresh pointer, while holders of
	// the old pointer (compiled plans) keep an intact program.
	for i := 0; i < progCacheSize; i++ {
		decodeCached(t, capsuleWire(t, 1, 3, distinctProg(1000+i)), c)
	}
	a4 := decodeCached(t, wire, c)
	if a4.Program == a1.Program {
		t.Fatal("post-flush decode reused the dropped pointer")
	}
	if len(a1.Program.Instrs) != len(cacheTestProg.Instrs) || a1.Program.Instrs[1].Op != isa.OpMemRead {
		t.Fatalf("flush disturbed a held program: %v", a1.Program.Instrs)
	}
}

func TestProgCacheTruncatedProgram(t *testing.T) {
	c := NewProgCache()
	wire := capsuleWire(t, 1, 1, cacheTestProg)
	// Chop the capsule before the program's EOF marker.
	if err := DecodeInto(wire[:len(wire)-isa.WireSize], &Active{}, c); err == nil {
		t.Fatal("truncated program decoded without error")
	}
	if c.Len() != 0 {
		t.Fatalf("cache len = %d after failed decode, want 0", c.Len())
	}
}
