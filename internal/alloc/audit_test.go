package alloc

import "testing"

// TestAuditBooksChurn churns admissions, releases, and a fence through
// the allocator and checks the books balance after every step; then forges
// a leak and checks the audit catches it.
func TestAuditBooksChurn(t *testing.T) {
	a := newAllocator(t, testConfig())
	check := func(when string) {
		t.Helper()
		if err := a.AuditBooks(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("empty")

	cons := []*Constraints{cacheCons(), hhCons(), lbCons()}
	fid := uint16(1)
	var live []uint16
	for round := 0; round < 8; round++ {
		for i, c := range cons {
			if _, err := a.Allocate(fid, c); err != nil {
				t.Fatalf("round %d allocate %d (%s): %v", round, fid, c.Name, err)
			}
			live = append(live, fid)
			fid++
			if i == 1 && len(live) > 2 {
				victim := live[0]
				live = live[1:]
				if _, err := a.Release(victim); err != nil {
					t.Fatalf("round %d release %d: %v", round, victim, err)
				}
			}
			check("after churn step")
		}
	}

	// Quarantined blocks must be booked on the quarantine side, not leak.
	a.Fence(map[int][]BlockRange{0: {{Lo: 0, Hi: 2}}})
	check("after fence")

	// Forge a leak: an interval whose owner has no matching book entry.
	a.pinned[3].insert(interval{BlockRange: BlockRange{Lo: 0, Hi: 1}, fid: 9999})
	if err := a.AuditBooks(); err == nil {
		t.Fatal("forged orphan interval not detected")
	}
}
