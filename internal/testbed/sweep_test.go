package testbed

import (
	"testing"
	"time"

	"activermt/internal/alloc"
)

// TestSweepFencesEveryBadBlock drives one sweep that reports a word in an
// inelastic tenant's region and a word in the free block its re-placement
// takes when only the first block is fenced, found by a dry run on an
// identical bed: every reported block is fenced, no placement overlaps a
// fence, and the fenced-blocks counter equals the allocator's fences.
func TestSweepFencesEveryBadBlock(t *testing.T) {
	var beds [2]*Testbed
	for i := range beds {
		beds[i] = newBed(t)
		_, cl := beds[i].AddMemSync(1, 16)
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	dry, tb := beds[0], beds[1]
	type word struct {
		stage int
		addr  uint32
	}
	sweep := func(tb *Testbed, words ...word) *alloc.Allocator {
		for _, w := range words {
			if err := tb.RT.Device().Stage(w.stage).Registers.CorruptBit(w.addr, 0); err != nil {
				t.Fatal(err)
			}
		}
		tb.Ctrl.SweepAndRepair()
		tb.RunFor(time.Second)
		return tb.Ctrl.Allocator()
	}
	placement := func(al *alloc.Allocator) *alloc.Placement {
		pl, ok := al.PlacementFor(1)
		if !ok {
			t.Fatal("the tenant is not resident")
		}
		return pl
	}

	held := placement(tb.Ctrl.Allocator()).Accesses[0]
	bad := []word{{held.Physical, held.Range.Lo}}
	bw := uint32(tb.Ctrl.Allocator().Config().BlockWords)
	for _, ap := range placement(sweep(dry, bad...)).Accesses {
		for w := ap.Range.Lo; w < ap.Range.Hi && len(bad) == 1; w += bw {
			if ap.Physical != held.Physical || w < held.Range.Lo || w >= held.Range.Hi {
				bad = append(bad, word{ap.Physical, w})
			}
		}
	}
	if len(bad) != 2 {
		t.Fatalf("the dry run re-placed the tenant inside its old region %+v", held)
	}

	al := sweep(tb, bad...)
	for _, w := range bad {
		if !al.QuarantinedIn(w.stage, int(w.addr/bw)) {
			t.Errorf("stage %d block %d was reported but is not fenced", w.stage, w.addr/bw)
		}
	}
	for _, fid := range al.FIDs() {
		pl, _ := al.PlacementFor(fid)
		for _, ap := range pl.Accesses {
			for w := ap.Range.Lo; w < ap.Range.Hi; w += bw {
				if al.QuarantinedIn(ap.Physical, int(w/bw)) {
					t.Errorf("fid %d holds fenced stage %d block %d", fid, ap.Physical, w/bw)
				}
			}
		}
	}
	if got, want := tb.Ctrl.QuarantinedBlockCount, al.QuarantinedBlocks(); got != uint64(want) {
		t.Errorf("fenced-blocks counter %d, the allocator fences %d", got, want)
	}
	if vs := tb.Check(); len(vs) > 0 {
		t.Errorf("check after the sweep: %v", vs)
	}
}
