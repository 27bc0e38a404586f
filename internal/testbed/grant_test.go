package testbed

import (
	"testing"
	"time"

	"activermt/internal/client"
	"activermt/internal/switchd"
)

// TestGrantCycleAllocs gates one steady-state grant cycle end to end: a
// cache tenant departs and a cache tenant arrives in its place, each moving
// at least two elastic residents, through the clients, the switch, the
// controller, the allocator and the runtime. What the cycle may allocate is
// the allocator's by contract — a fresh placement for every grant it hands
// out, the newcomer's App and constraints — not a closure per timer, a job,
// a decoded response or grant per moved tenant, or a recompiled plan.
func TestGrantCycleAllocs(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	var cls []*client.Client
	for fid := uint16(1); fid <= 8; fid++ {
		_, cl := tb.AddCache(fid, srv)
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cls = append(cls, cl)
	}
	cl := cls[3]
	moved := func(rec switchd.ProvisionRecord, kind switchd.JobKind) {
		if rec.Kind != kind || rec.Failed || rec.Reallocated < 2 {
			t.Fatalf("%s: %+v, want a granted %s that moved >= 2 residents", kind, rec, kind)
		}
	}
	n := testing.AllocsPerRun(50, func() {
		if err := cl.Release(); err != nil {
			t.Fatal(err)
		}
		tb.Eng.Run()
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		tb.Eng.Run()
		recs := tb.Ctrl.Records[len(tb.Ctrl.Records)-2:]
		moved(recs[0], switchd.JobRelease)
		moved(recs[1], switchd.JobAdmit)
		if !cl.Operational() {
			t.Fatalf("re-admitted client is %v", cl.State())
		}
	})
	// The cycle allocates 21, under -race too (23 while an App kept its
	// regions in a map besides its groups, 111 before controller and client
	// timers were typed, grants and responses decoded into scratch and plans
	// recycled): five placements, the newcomer's App, groups and
	// constraints, the client's request, each allocator call's result.
	t.Logf("%.0f allocations per departure + arrival", n)
	if n > 21 {
		t.Errorf("%.0f allocations per departure + arrival, want <= 21", n)
	}
}

// TestChurnCycleWithinSlackMovesNobody: with 48 cache residents, sixteen in
// each of the stage sets their mutants take, one departure frees less than
// the allocator's slack in every stage, and a departure followed by an
// arrival of the same kind moves no resident — no
// reallocation notice reaches any client and neither grant record counts a
// reallocated tenant — where growing the neighbours into the hole would move
// each of them twice.
func TestChurnCycleWithinSlackMovesNobody(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	var cls []*client.Client
	for fid := uint16(1); fid <= 48; fid++ {
		_, cl := tb.AddCache(fid, srv)
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cls = append(cls, cl)
	}
	notices := func() (n uint64) {
		for _, cl := range cls {
			n += cl.Reallocations
		}
		return n
	}
	was := notices()
	cl := cls[11]
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Run()
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	recs := tb.Ctrl.Records[len(tb.Ctrl.Records)-2:]
	if recs[0].Kind != switchd.JobRelease || recs[1].Kind != switchd.JobAdmit {
		t.Fatalf("last two records %+v, want a release then an admission", recs)
	}
	for _, rec := range recs {
		if rec.Failed || rec.Reallocated != 0 {
			t.Errorf("%s: %+v, want granted with no tenant reallocated", rec.Kind, rec)
		}
	}
	if n := notices() - was; n != 0 {
		t.Errorf("the cycle sent %d reallocation notices, want none", n)
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}
