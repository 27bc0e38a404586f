package alloc

import (
	"math/rand"
	"testing"
)

// regionsOf returns the range app holds in each physical stage it occupies.
func regionsOf(app *App) map[int]BlockRange {
	out := map[int]BlockRange{}
	for _, g := range app.groups {
		for _, s := range g.stages {
			if g.r.Size() > 0 {
				out[s] = g.r
			}
		}
	}
	return out
}

// appOf returns fid's resident app, or nil.
func appOf(a *Allocator, fid uint16) *App {
	app, _ := a.App(fid)
	return app
}

// regionsNow copies every resident app's regions, by FID.
func regionsNow(a *Allocator) map[uint16]map[int]BlockRange {
	out := map[uint16]map[int]BlockRange{}
	for _, app := range a.apps {
		out[app.FID] = regionsOf(app)
	}
	return out
}

// selectCons is an elastic app whose two accesses need no common offset.
func selectCons() *Constraints {
	return &Constraints{Name: "select", ProgLen: 6, IngressIdx: -1, Elastic: true, Accesses: []Access{{Index: 1}, {Index: 3}}}
}

// TestInPlaceAdmissionShrinksVictimsWhereTheyStand: an admission realised in
// place moves nobody — every victim's new region lies inside its old one —
// and some admissions are realised that way.
func TestInPlaceAdmissionShrinksVictimsWhereTheyStand(t *testing.T) {
	a := newAllocator(t, testConfig())
	for fid := uint16(1); fid <= 40; fid++ {
		old := regionsNow(a)
		was := a.relayouts
		res, err := a.Allocate(fid, cacheCons())
		if err != nil || res.Failed {
			t.Fatalf("fid %d: %v %+v", fid, err, res)
		}
		if a.relayouts[1] != was[1] {
			continue // a full re-lay may move anyone
		}
		for _, pl := range res.Reallocated {
			for s, r := range regionsOf(appOf(a, pl.FID)) {
				if o := old[pl.FID][s]; r.Lo < o.Lo || r.Hi > o.Hi {
					t.Fatalf("admitting %d in place moved fid %d in stage %d: %+v -> %+v", fid, pl.FID, s, o, r)
				}
			}
		}
	}
	if a.relayouts[0] == 0 {
		t.Errorf("40 stacked caches: %d layouts in place, %d full re-lays; want some in place", a.relayouts[0], a.relayouts[1])
	}
	assertNoOverlap(t, a)
}

// stackCaches admits n elastic caches, FIDs 1..n, into a fresh allocator.
func stackCaches(t *testing.T, n uint16) *Allocator {
	t.Helper()
	a := newAllocator(t, testConfig())
	for fid := uint16(1); fid <= n; fid++ {
		if res, err := a.Allocate(fid, cacheCons()); err != nil || res.Failed {
			t.Fatalf("fid %d: %v %+v", fid, err, res)
		}
	}
	return a
}

// TestReleaseWithinSlackMovesNobody: a departure from a deep stack frees
// less share than the slack in every stage, so its neighbours stay where
// they are, and the next arrival of the same kind takes the freed blocks
// without cutting anyone.
func TestReleaseWithinSlackMovesNobody(t *testing.T) {
	a := stackCaches(t, 96)
	old := regionsNow(a)
	was := a.relayouts
	changed, err := a.Release(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.relayouts != [2]uint64{was[0] + 1, was[1]} {
		t.Fatalf("release was not realised in place: %v -> %v", was, a.relayouts)
	}
	for _, pl := range changed {
		t.Errorf("release of one of 96 stacked caches moved fid %d: %v -> %v", pl.FID, old[pl.FID], regionsOf(appOf(a, pl.FID)))
	}
	res, err := a.Allocate(7, cacheCons())
	if err != nil || res.Failed {
		t.Fatalf("re-admit: %v %+v", err, res)
	}
	for _, pl := range res.Reallocated {
		t.Errorf("re-admission into the freed blocks reallocated fid %d, held %v before the release", pl.FID, old[pl.FID])
	}
	for s, r := range regionsOf(appOf(a, 7)) {
		if o, ok := old[7][s]; !ok || r.Lo < o.Lo || r.Hi > o.Hi {
			t.Errorf("newcomer stage %d: %+v, outside the freed %+v", s, r, o)
		}
	}
	if err := a.AuditBooks(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseInPlaceGrowsOnlyNeighbors: a departure from a shallow stack
// frees more share than the slack, and only groups next to free space grow
// into it, where they stand; nobody else's region changes.
func TestReleaseInPlaceGrowsOnlyNeighbors(t *testing.T) {
	a := stackCaches(t, 8)
	old := regionsNow(a)
	was := a.relayouts
	changed, err := a.Release(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.relayouts != [2]uint64{was[0] + 1, was[1]} {
		t.Fatalf("release was not realised in place: %v -> %v", was, a.relayouts)
	}
	if len(changed) == 0 || 2*len(changed) > a.NumApps() {
		t.Errorf("release of one of 8 stacked caches changed %d of %d neighbors, want a few", len(changed), a.NumApps())
	}
	for _, pl := range changed {
		for s, r := range regionsOf(appOf(a, pl.FID)) {
			if o := old[pl.FID][s]; r.Lo > o.Lo || r.Hi < o.Hi {
				t.Errorf("fid %d stage %d: %+v -> %+v does not contain the old region", pl.FID, s, o, r)
			}
		}
	}
	if err := a.AuditBooks(); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceNeverRefusesWhatRelayAdmits: the in-place layout is fragmented
// by its history, and a newcomer that does not fit it must get the full
// re-lay before it is refused. Arrival / departure sequences run at
// capacity under every scheme; whenever an arrival is refused, the same
// books are asked again as the full-re-lay-only reference, which must refuse
// it too.
func TestInPlaceNeverRefusesWhatRelayAdmits(t *testing.T) {
	mix := []func() *Constraints{cacheCons, hhCons, lbCons, selectCons}
	for _, scheme := range []Scheme{WorstFit, BestFit, FirstFit, MinRealloc} {
		for _, blocks := range []int{368, 48} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := testConfig()
				cfg.Scheme = scheme
				cfg.StageWords = cfg.BlockWords * blocks
				a := newAllocator(t, cfg)
				rng := rand.New(rand.NewSource(seed))
				refused := 0
				for fid := uint16(1); fid <= 240; fid++ {
					if fids := a.FIDs(); len(fids) > 0 && rng.Intn(3) == 0 {
						if _, err := a.Release(fids[rng.Intn(len(fids))]); err != nil {
							t.Fatal(err)
						}
					}
					cons := mix[rng.Intn(len(mix))]()
					res, err := a.Allocate(fid, cons)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Failed {
						continue
					}
					refused++
					a.relayOnly = true
					ref, err := a.Allocate(fid, cons)
					a.relayOnly = false
					if err != nil || !ref.Failed {
						t.Fatalf("%v/%d/seed %d: fid %d (%s) refused (%s), the full re-lay admits it (%v)", scheme, blocks, seed, fid, cons.Name, res.Reason, err)
					}
				}
				if refused == 0 && blocks < 368 {
					t.Errorf("%v/%d/seed %d: nothing refused: the sequence never reached capacity", scheme, blocks, seed)
				}
				if a.relayouts[0] == 0 || a.relayouts[1] == 0 {
					t.Errorf("%v/%d/seed %d: layouts %v, want both kinds exercised", scheme, blocks, seed, a.relayouts)
				}
				if err := a.AuditBooks(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRelayoutsCounterFollowsBooks: Relayouts, which the
// activermt_alloc_relayouts_total{kind} family reads, reports what the
// allocator observed — both kinds under churn — and a fresh allocator (the
// books a controller crash leaves) starts from zero and counts its own; the
// controller carries the dead books' counts (switchd's
// TestAllocFamiliesFollowTheLiveBooks).
func TestRelayoutsCounterFollowsBooks(t *testing.T) {
	a := newAllocator(t, testConfig())
	for fid := uint16(1); fid <= 60; fid++ {
		if _, err := a.Allocate(fid, cacheCons()); err != nil {
			t.Fatal(err)
		}
		if fid%3 == 0 {
			if _, err := a.Release(fid - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	inplace, full := a.Relayouts()
	if [2]uint64{inplace, full} != a.relayouts || inplace == 0 || full == 0 {
		t.Fatalf("Relayouts reads inplace %d full %d, the allocator observed %v (want both kinds)", inplace, full, a.relayouts)
	}
	b := newAllocator(t, testConfig())
	if _, err := b.Allocate(1, cacheCons()); err != nil {
		t.Fatal(err)
	}
	if i, f := b.Relayouts(); i+f != 1 {
		t.Errorf("a fresh allocator after one admission reads %d in place + %d full, want 1 layout", i, f)
	}
}
