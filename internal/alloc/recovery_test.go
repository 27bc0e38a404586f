package alloc

import (
	"slices"
	"testing"
)

// blocksOf converts fid's placement into the per-stage block regions a
// restarted controller would read back from the switch tables.
func blocksOf(t *testing.T, a *Allocator, fid uint16) map[int]BlockRange {
	t.Helper()
	pl, ok := a.PlacementFor(fid)
	if !ok {
		t.Fatalf("fid %d has no placement", fid)
	}
	bw := a.Config().BlockWords
	out := map[int]BlockRange{}
	for _, ap := range pl.Accesses {
		s := ap.Logical % a.Config().NumStages
		out[s] = BlockRange{Lo: int(ap.Range.Lo) / bw, Hi: (int(ap.Range.Hi) + bw - 1) / bw}
	}
	return out
}

func TestRecoverThenReadmitElastic(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, cacheCons())
	if err != nil || res.Failed {
		t.Fatalf("allocate: %v %+v", err, res)
	}
	wantIdx := res.New.MutantIdx
	regions := blocksOf(t, a, 1)

	// Crash: fresh books, recover from "tables".
	b := newAllocator(t, testConfig())
	if err := b.Recover(1, regions); err != nil {
		t.Fatal(err)
	}
	if !b.Recovered(1) {
		t.Fatal("not in recovered state")
	}
	if _, ok := b.PlacementFor(1); ok {
		t.Fatal("recovered app must not answer PlacementFor (no constraints)")
	}
	// The client's retransmitted request restores full state, matching the
	// installed mutant.
	rres, err := b.Readmit(1, cacheCons())
	if err != nil || rres.Failed {
		t.Fatalf("readmit: %v %+v", err, rres)
	}
	if b.Recovered(1) {
		t.Error("still recovered after readmit")
	}
	if rres.New == nil || rres.New.MutantIdx != wantIdx {
		t.Errorf("readmitted mutant = %+v, want idx %d", rres.New, wantIdx)
	}
	assertNoOverlap(t, b)
}

func TestRecoverRejectsConflicts(t *testing.T) {
	a := newAllocator(t, testConfig())
	if err := a.Recover(1, map[int]BlockRange{3: {Lo: 0, Hi: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Recover(2, map[int]BlockRange{3: {Lo: 2, Hi: 6}}); err == nil {
		t.Error("overlapping recovery accepted")
	}
	// The clash is at the later stage: the earlier one must not stay booked.
	if err := a.Recover(2, map[int]BlockRange{1: {Lo: 0, Hi: 4}, 3: {Lo: 2, Hi: 6}}); err == nil {
		t.Error("recovery overlapping at its second stage accepted")
	}
	if err := a.AuditBooks(); err != nil {
		t.Errorf("after the rejected recoveries: %v", err)
	}
	if err := a.Recover(1, map[int]BlockRange{5: {Lo: 0, Hi: 1}}); err == nil {
		t.Error("duplicate fid recovery accepted")
	}
	if err := a.Recover(QuarantineFID, map[int]BlockRange{0: {Lo: 0, Hi: 1}}); err == nil {
		t.Error("reserved fid recovery accepted")
	}
}

func TestReadmitMismatchedTablesFallsBack(t *testing.T) {
	a := newAllocator(t, testConfig())
	// Recovered regions that no cache mutant projects onto: a single stage.
	if err := a.Recover(1, map[int]BlockRange{0: {Lo: 0, Hi: 4}}); err != nil {
		t.Fatal(err)
	}
	res, err := a.Readmit(1, cacheCons())
	if err != nil || res.Failed {
		t.Fatalf("readmit should fall back to a fresh allocation: %v %+v", err, res)
	}
	if res.New == nil {
		t.Fatal("no placement from fallback")
	}
	assertNoOverlap(t, a)
}

func TestReadmitStatelessAgainstRecoveredEvicts(t *testing.T) {
	a := newAllocator(t, testConfig())
	if err := a.Recover(1, map[int]BlockRange{0: {Lo: 0, Hi: 4}}); err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{Name: "stateless", ProgLen: 4, IngressIdx: -1}
	if _, err := a.Readmit(1, cons); err == nil {
		t.Error("stateless readmit against recovered regions accepted")
	}
	if a.NumApps() != 0 {
		t.Errorf("apps = %d after eviction", a.NumApps())
	}
}

// TestQuarantineFencesBlocksAndMovesElastic: fencing a block an elastic
// tenant holds fences it and re-places the tenant around it; fencing it again
// fences and moves nothing.
func TestQuarantineFencesBlocksAndMovesElastic(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, cacheCons())
	if err != nil || res.Failed {
		t.Fatal(err)
	}
	regions := blocksOf(t, a, 1)
	stage := sortedKeys(regions)[0]
	target := BlockRange{Lo: regions[stage].Lo, Hi: regions[stage].Lo + 1}
	bad := map[int][]BlockRange{stage: {target}}
	f := a.Fence(bad)
	if f.Fenced != 1 || f.Evacuated != 1 || len(f.Evicted) != 0 || len(f.Moved) != 1 || f.Moved[0].FID != 1 {
		t.Fatalf("fence = %+v, want 1 block fenced and fid 1 moved", f)
	}
	if !a.QuarantinedIn(stage, target.Lo) {
		t.Error("block not quarantined")
	}
	if a.QuarantinedBlocks() != 1 {
		t.Errorf("quarantined blocks = %d", a.QuarantinedBlocks())
	}
	// The elastic tenant was re-placed around the fence.
	after := blocksOf(t, a, 1)
	if got := after[stage]; got.overlaps(target) {
		t.Errorf("stage %d region %+v still overlaps quarantined %+v", stage, got, target)
	}
	// Re-fencing the same block fences and moves nothing.
	if f := a.Fence(bad); f.Fenced != 0 || f.Evacuated != 0 || f.Moved != nil || f.Evicted != nil {
		t.Errorf("re-fence = %+v, want nothing done", f)
	}
	assertNoOverlap(t, a)
}

// TestFenceFencesFreeBlocksBeforeReplacing: one call reports a block an
// inelastic tenant holds and the free block its re-placement would take if
// only the first were fenced (found on an identical dry-run allocator). Both
// are fenced, and the tenant lands clear of both.
func TestFenceFencesFreeBlocksBeforeReplacing(t *testing.T) {
	dry := newAllocator(t, testConfig())
	a := newAllocator(t, testConfig())
	for _, x := range []*Allocator{dry, a} {
		if res, err := x.Allocate(1, hhCons()); err != nil || res.Failed {
			t.Fatalf("allocate: %v %+v", err, res)
		}
	}
	was := blocksOf(t, a, 1)
	s := sortedKeys(was)[0]
	if f := dry.Fence(map[int][]BlockRange{s: {{Lo: was[s].Lo, Hi: was[s].Lo + 1}}}); len(f.Moved) != 1 {
		t.Fatalf("dry run: %+v", f)
	}
	// Add the first block of the dry-run placement the tenant did not hold.
	bad := map[int][]BlockRange{s: {{Lo: was[s].Lo, Hi: was[s].Lo + 1}}}
	lands := blocksOf(t, dry, 1)
	found := false
	for _, ls := range sortedKeys(lands) {
		for b := lands[ls].Lo; b < lands[ls].Hi && !found; b++ {
			if r := (BlockRange{Lo: b, Hi: b + 1}); !r.overlaps(was[ls]) {
				bad[ls] = append(bad[ls], r)
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no free block in the dry-run placement %v (was %v)", lands, was)
	}

	f := a.Fence(bad)
	if f.Fenced != 2 || f.Evacuated != 1 || len(f.Evicted) != 0 || len(f.Moved) != 1 {
		t.Fatalf("fence = %+v, want 2 blocks fenced and fid 1 moved once", f)
	}
	if a.QuarantinedBlocks() != 2 {
		t.Errorf("quarantined blocks = %d, want 2", a.QuarantinedBlocks())
	}
	now := blocksOf(t, a, 1)
	for s, rs := range bad {
		for _, r := range rs {
			if !a.QuarantinedIn(s, r.Lo) {
				t.Errorf("stage %d block %d not fenced", s, r.Lo)
			}
			if now[s].overlaps(r) {
				t.Errorf("stage %d: tenant re-placed at %+v, over fenced %+v", s, now[s], r)
			}
		}
	}
	if err := a.AuditBooks(); err != nil {
		t.Error(err)
	}
}

func TestEvacuateReplacesVictimAroundFence(t *testing.T) {
	a := newAllocator(t, testConfig())
	if res, err := a.Allocate(1, cacheCons()); err != nil || res.Failed {
		t.Fatal(err)
	}
	regions := blocksOf(t, a, 1)
	quar := map[int][]BlockRange{}
	for s, r := range regions {
		quar[s] = []BlockRange{{Lo: r.Lo, Hi: r.Lo + 1}}
	}
	f := a.Fence(quar)
	if f.Evacuated != 1 || len(f.Evicted) != 0 || len(f.Moved) != 1 || f.Moved[0].FID != 1 {
		t.Fatalf("fence = %+v, want fid 1 re-placed", f)
	}
	after := blocksOf(t, a, 1)
	for s, brs := range quar {
		for _, br := range brs {
			if !a.QuarantinedIn(s, br.Lo) {
				t.Errorf("stage %d block %d not fenced", s, br.Lo)
			}
			if got, ok := after[s]; ok && got.overlaps(br) {
				t.Errorf("stage %d: new region %+v overlaps fenced %+v", s, got, br)
			}
		}
	}
	assertNoOverlap(t, a)
}

func TestEvacuateRecoveredAppIsEvicted(t *testing.T) {
	a := newAllocator(t, testConfig())
	if err := a.Recover(1, map[int]BlockRange{2: {Lo: 10, Hi: 14}}); err != nil {
		t.Fatal(err)
	}
	f := a.Fence(map[int][]BlockRange{2: {{Lo: 10, Hi: 11}}})
	if !slices.Equal(f.Evicted, []uint16{1}) || f.Moved != nil || f.Fenced != 1 {
		t.Errorf("fence = %+v, want fid 1 evicted", f)
	}
	if a.NumApps() != 0 {
		t.Errorf("apps = %d", a.NumApps())
	}
	if !a.QuarantinedIn(2, 10) {
		t.Error("block not fenced after eviction")
	}
}

// TestRecoveredBooksStayCompactable: books rebuilt from the tables and
// readmitted tenant by tenant offer the compaction candidates the books
// offered before the crash — a recovered grant is booked like any other.
func TestRecoveredBooksStayCompactable(t *testing.T) {
	a, live := fragment(t, 12)
	want := a.CompactionCandidates(nil)
	if len(want) == 0 {
		t.Fatal("the fragmented books offer no candidate")
	}
	b := newAllocator(t, testConfig())
	for _, fid := range live {
		if err := b.Recover(fid, blocksOf(t, a, fid)); err != nil {
			t.Fatal(err)
		}
	}
	for _, fid := range live {
		if res, err := b.Readmit(fid, hhCons()); err != nil || res.Failed {
			t.Fatalf("readmit %d: %v %+v", fid, err, res)
		}
	}
	if got := b.CompactionCandidates(nil); !slices.Equal(got, want) {
		t.Errorf("candidates after crash and readmission %v, before %v", got, want)
	}
	if err := b.AuditBooks(); err != nil {
		t.Error(err)
	}
}

// TestRecoverMovesNobody: rebuilding books from the tables books every
// region where the tables have it and lays nothing out, so n recoveries
// leave the re-layout counters at zero; and a region over an elastic
// tenant's is refused with the books untouched, where re-laying around it
// would move the tenant in the books and report no placement for the move.
func TestRecoverMovesNobody(t *testing.T) {
	a := newAllocator(t, testConfig())
	const n = 8
	for fid := uint16(1); fid <= n; fid++ {
		if err := a.Recover(fid, map[int]BlockRange{int(fid): {Lo: 0, Hi: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	if inplace, full := a.Relayouts(); inplace != 0 || full != 0 {
		t.Errorf("%d recoveries: %d layouts in place, %d full re-lays; want none", n, inplace, full)
	}

	b := newAllocator(t, testConfig())
	if res, err := b.Allocate(1, cacheCons()); err != nil || res.Failed {
		t.Fatalf("allocate: %v %+v", err, res)
	}
	was := dumpBooks(b)
	if err := b.Recover(2, blocksOf(t, b, 1)); err == nil {
		t.Error("recovery over an elastic tenant's region accepted")
	}
	if now := dumpBooks(b); now != was {
		t.Errorf("refused recovery changed the books:\n%s\nwas:\n%s", now, was)
	}
}
