package compiler_test

import (
	"errors"
	"testing"

	"activermt/internal/apps"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/secapps"
)

// TestShippedTranslateStages pins, for every shipped template, which slots
// before each access translate: the switch installs translation entries
// there and nowhere else. Each mask is per access, bit k-1 for the slot k
// before it. The cache templates address their buckets with a
// client-translated MAR_LOAD and never translate; hh-monitor translates in
// exactly its six ADDR slots; lb-select in one.
func TestShippedTranslateStages(t *testing.T) {
	want := map[string][]uint8{
		"cache-query":        {0, 0, 0},
		"cache-populate":     {0, 0, 0},
		"cache-populate-fwd": {0, 0, 0},
		"cache-readback":     {0, 0, 0},
		"lb-select":          {0, 0b0001},
		"lb-setup":           {0, 0},
		"lb-route":           {},
		"mem-read":           {0},
		"mem-write":          {0},
		"hh-monitor":         {0b0011, 0b0011, 0b0110},
		"sf-syn":             {0b0011, 0b0110},
		"sf-ack":             {0b0011, 0b0110},
		"rl-check":           {0b0011},
		"rl-refill":          {0b0011},
		"hx-sketch":          {0b0011, 0b0110},
		"hx-claim":           {0b0011},
	}
	progs := append(apps.Programs(), secapps.Programs()...)
	if len(progs) != len(want) {
		t.Fatalf("%d shipped programs, %d pinned: pin the new ones", len(progs), len(want))
	}
	for _, p := range progs {
		c, err := compiler.Extract(p, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		masks, ok := want[p.Name]
		if !ok || len(masks) != len(c.Accesses) {
			t.Fatalf("%s: %d accesses, pinned %v", p.Name, len(c.Accesses), masks)
		}
		addrs := 0
		for _, in := range p.Instrs {
			if in.Op == isa.OpAddrMask || in.Op == isa.OpAddrOffset {
				addrs++
			}
		}
		marked := 0
		for i, a := range c.Accesses {
			if a.Translate != masks[i] {
				t.Errorf("%s access %d (slot %d): translate %04b, want %04b", p.Name, i, a.Index, a.Translate, masks[i])
			}
			for m := a.Translate; m != 0; m &= m - 1 {
				marked++
			}
		}
		if marked != addrs {
			t.Errorf("%s: %d translate slots marked for %d ADDR instructions", p.Name, marked, addrs)
		}
	}
}

// TestTranslateOutOfReach: an ADDR_MASK or ADDR_OFFSET the request cannot
// name — five or more slots before its access, or after the last access —
// is refused at Extract with ErrTranslateReach, never dropped.
func TestTranslateOutOfReach(t *testing.T) {
	for _, src := range []string{
		"ADDR_MASK\nNOP\nNOP\nNOP\nNOP\nMEM_READ\nRETURN",
		"MAR_LOAD 0\nMEM_READ\nADDR_OFFSET\nNOP\nNOP\nNOP\nNOP\nMEM_WRITE\nRETURN",
		"MEM_READ\nADDR_OFFSET\nRETURN",
		"ADDR_MASK\nRETURN",
	} {
		p := isa.MustAssemble("reach", src)
		if c, err := compiler.Extract(p, false, nil); !errors.Is(err, compiler.ErrTranslateReach) || c != nil {
			t.Errorf("%q: Extract = %v, %v; want ErrTranslateReach", src, c, err)
		}
	}
	p := isa.MustAssemble("reach", "ADDR_MASK\nNOP\nNOP\nNOP\nMEM_READ\nRETURN")
	if c, err := compiler.Extract(p, false, nil); err != nil || c.Accesses[0].Translate != 0b1000 {
		t.Errorf("ADDR four slots before its access: Extract = %+v, %v; want translate 1000", c, err)
	}
}
