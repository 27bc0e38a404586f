package alloc

import "testing"

// fragment builds the canonical defrag scenario: a column of inelastic
// tenants stacked in shared stages, then every other tenant released so the
// survivors sit above holes. Returns the allocator and the surviving FIDs.
func fragment(t *testing.T, n int) (*Allocator, []uint16) {
	t.Helper()
	a := newAllocator(t, testConfig())
	for fid := uint16(1); fid <= uint16(n); fid++ {
		res, err := a.Allocate(fid, hhCons())
		if err != nil || res.Failed {
			t.Fatalf("admit fid %d: err=%v failed=%v", fid, err, res != nil && res.Failed)
		}
	}
	var live []uint16
	for fid := uint16(1); fid <= uint16(n); fid++ {
		if fid%2 == 1 {
			if _, err := a.Release(fid); err != nil {
				t.Fatalf("release fid %d: %v", fid, err)
			}
		} else {
			live = append(live, fid)
		}
	}
	if err := a.AuditBooks(); err != nil {
		t.Fatalf("books after churn: %v", err)
	}
	return a, live
}

func TestFragmentationGaugeFromBooks(t *testing.T) {
	a := newAllocator(t, testConfig())
	if f := a.Fragmentation(); f != 0 {
		t.Fatalf("empty pipeline fragmentation = %v, want 0", f)
	}
	res, err := a.Allocate(1, hhCons())
	if err != nil || res.Failed {
		t.Fatalf("admit: %v", err)
	}
	if f := a.Fragmentation(); f != 0 {
		t.Fatalf("single bottom-placed tenant fragmentation = %v, want 0", f)
	}
}

func TestCompactionCandidatesAfterChurn(t *testing.T) {
	a, _ := fragment(t, 12)
	frag := a.Fragmentation()
	if frag <= 0 {
		t.Fatalf("churn left fragmentation %v, want > 0", frag)
	}
	cands := a.CompactionCandidates(nil)
	if len(cands) == 0 {
		t.Fatal("no compaction candidates despite fragmentation")
	}
	// Candidate order is best gain first; every candidate must actually
	// plan a strict improvement.
	prevGain := int(^uint(0) >> 1)
	for _, fid := range cands {
		moves, gain, ok := a.compactPlan(appOf(a, fid))
		if !ok || len(moves) == 0 {
			t.Fatalf("candidate fid %d has no plan", fid)
		}
		if gain > prevGain {
			t.Fatalf("candidates out of gain order: %d after %d", gain, prevGain)
		}
		prevGain = gain
		if err := a.AuditBooks(); err != nil {
			t.Fatalf("compactPlan dirtied the books: %v", err)
		}
	}
	// The eligibility filter must be honored.
	none := a.CompactionCandidates(func(uint16) bool { return false })
	if len(none) != 0 {
		t.Fatalf("filter rejected everything but got %v", none)
	}
}

func TestCompactAppMovesDownAndBalancesBooks(t *testing.T) {
	a, _ := fragment(t, 12)
	fragBefore := a.Fragmentation()
	cands := a.CompactionCandidates(nil)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	moved := 0
	for _, fid := range cands {
		before := make(map[int]BlockRange)
		for s, r := range regionsOf(appOf(a, fid)) {
			before[s] = r
		}
		res, ok := a.CompactApp(fid)
		if !ok {
			// Another compaction may have consumed the hole; fine.
			continue
		}
		moved++
		if res.Placement == nil || res.Placement.FID != fid {
			t.Fatalf("fid %d: bad placement %+v", fid, res.Placement)
		}
		if res.BlocksMoved <= 0 {
			t.Fatalf("fid %d: committed compaction moved %d blocks", fid, res.BlocksMoved)
		}
		worse := false
		for s, r := range regionsOf(appOf(a, fid)) {
			if old, ok := before[s]; ok && r.Lo > old.Lo {
				worse = true
			}
		}
		if worse {
			t.Fatalf("fid %d: a region moved upward: %v -> %v", fid, before, regionsOf(appOf(a, fid)))
		}
		if err := a.AuditBooks(); err != nil {
			t.Fatalf("books after compacting fid %d: %v", fid, err)
		}
	}
	if moved == 0 {
		t.Fatal("no candidate compacted")
	}
	fragAfter := a.Fragmentation()
	if fragAfter >= fragBefore {
		t.Fatalf("fragmentation %v -> %v, want a decrease", fragBefore, fragAfter)
	}
	// Once compact, re-compacting is a no-op with books untouched.
	for _, fid := range a.FIDs() {
		if _, ok := a.CompactApp(fid); ok {
			if len(a.CompactionCandidates(nil)) > 0 {
				continue // secondary holes can open; keep going
			}
		}
	}
	if err := a.AuditBooks(); err != nil {
		t.Fatalf("books after full compaction: %v", err)
	}
}

func TestCompactAppRejectsIneligible(t *testing.T) {
	a := newAllocator(t, testConfig())
	if _, ok := a.CompactApp(99); ok {
		t.Fatal("compacted a non-resident fid")
	}
	res, err := a.Allocate(1, cacheCons())
	if err != nil || res.Failed {
		t.Fatalf("admit elastic: %v", err)
	}
	if _, ok := a.CompactApp(1); ok {
		t.Fatal("compacted an elastic app")
	}
	// A lone inelastic app is already at the bottom: no improvement.
	res, err = a.Allocate(2, hhCons())
	if err != nil || res.Failed {
		t.Fatalf("admit hh: %v", err)
	}
	if _, ok := a.CompactApp(2); ok {
		t.Fatal("compacted an already-compact app")
	}
	if err := a.AuditBooks(); err != nil {
		t.Fatalf("books: %v", err)
	}
}
