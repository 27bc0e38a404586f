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

func TestQuarantineFencesBlocksAndMovesElastic(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, cacheCons())
	if err != nil || res.Failed {
		t.Fatal(err)
	}
	regions := blocksOf(t, a, 1)
	var stage int
	var r BlockRange
	for s, br := range regions {
		stage, r = s, br
		break
	}
	target := BlockRange{Lo: r.Lo, Hi: r.Lo + 1}
	if _, err := a.Quarantine(stage, target); err != nil {
		t.Fatal(err)
	}
	if !a.QuarantinedIn(stage, target.Lo) {
		t.Error("block not quarantined")
	}
	if a.QuarantinedBlocks() != 1 {
		t.Errorf("quarantined blocks = %d", a.QuarantinedBlocks())
	}
	// The elastic tenant was re-placed around the fence.
	after := blocksOf(t, a, 1)
	if got := after[stage]; got.Lo < target.Hi && target.Lo < got.Hi {
		t.Errorf("stage %d region %+v still overlaps quarantined %+v", stage, got, target)
	}
	// Re-fencing the same block reports nothing to move and no error.
	pls, err := a.Quarantine(stage, target)
	if err != nil || pls != nil {
		t.Errorf("re-quarantine: %v %v", pls, err)
	}
	assertNoOverlap(t, a)
}

func TestQuarantineRefusesPinnedOverlap(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, hhCons()) // inelastic, pinned at the bottom
	if err != nil || res.Failed {
		t.Fatal(err)
	}
	regions := blocksOf(t, a, 1)
	for s, r := range regions {
		if _, err := a.Quarantine(s, BlockRange{Lo: r.Lo, Hi: r.Lo + 1}); err == nil {
			t.Errorf("stage %d: quarantine overlapping pinned app accepted", s)
		}
		break
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
	res, err := a.Evacuate(1, quar)
	if err != nil || res.Failed {
		t.Fatalf("evacuate: %v %+v", err, res)
	}
	if res.New == nil || res.New.FID != 1 {
		t.Fatalf("victim placement = %+v", res.New)
	}
	after := blocksOf(t, a, 1)
	for s, brs := range quar {
		for _, br := range brs {
			if !a.QuarantinedIn(s, br.Lo) {
				t.Errorf("stage %d block %d not fenced", s, br.Lo)
			}
			if got, ok := after[s]; ok && got.Lo < br.Hi && br.Lo < got.Hi {
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
	res, err := a.Evacuate(1, map[int][]BlockRange{2: {{Lo: 10, Hi: 11}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.Reason != "recovered-app-evicted" {
		t.Errorf("result = %+v", res)
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
