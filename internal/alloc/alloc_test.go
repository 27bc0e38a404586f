package alloc

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// cacheCons mirrors the paper's Listing 1 cache query: 11 instructions,
// memory accesses at (0-based) 1, 4, 8, RTS at 7, elastic, one alignment
// group (the single-MAR bucket layout needs identical offsets per stage).
func cacheCons() *Constraints {
	return &Constraints{
		Name:       "cache",
		ProgLen:    11,
		IngressIdx: 7,
		Elastic:    true,
		Accesses: []Access{
			{Index: 1, AlignGroup: 1},
			{Index: 4, AlignGroup: 1},
			{Index: 8, AlignGroup: 1},
		},
	}
}

// hhCons is an inelastic heavy-hitter: two 16-block count-min-sketch rows.
func hhCons() *Constraints {
	return &Constraints{
		Name:       "hh",
		ProgLen:    14,
		IngressIdx: -1,
		Accesses: []Access{
			{Index: 7, Demand: 16},
			{Index: 12, Demand: 16},
		},
	}
}

// lbCons is an inelastic load balancer: three small accesses plus a 2-block
// VIP pool.
func lbCons() *Constraints {
	return &Constraints{
		Name:       "lb",
		ProgLen:    12,
		IngressIdx: -1,
		Accesses: []Access{
			{Index: 2, Demand: 1},
			{Index: 5, Demand: 1},
			{Index: 8, Demand: 2},
		},
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func newAllocator(t *testing.T, cfg Config) *Allocator {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// computeBounds is Bounds.compute over the paper's pipeline.
func computeBounds(c *Constraints, pol Policy) (*Bounds, error) {
	b := &Bounds{}
	return b, b.compute(c, pol, 20, 10, 2)
}

// enumerate is appendMutants over the paper's pipeline, into fresh storage.
func enumerate(b *Bounds) []Mutant {
	ms, _ := appendMutants(nil, nil, b, 20)
	return ms
}

func TestComputeBoundsListing1MostConstrained(t *testing.T) {
	b, err := computeBounds(cacheCons(), MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	wantLB := []int{1, 4, 8}
	wantUB := []int{3, 6, 10} // paper's UB=[4,7,11] one-based
	wantGap := []int{2, 3, 4}
	for i := range wantLB {
		if b.LB[i] != wantLB[i] || b.UB[i] != wantUB[i] || b.Gap[i] != wantGap[i] {
			t.Fatalf("bounds[%d] = LB %d UB %d Gap %d, want %d/%d/%d",
				i, b.LB[i], b.UB[i], b.Gap[i], wantLB[i], wantUB[i], wantGap[i])
		}
	}
}

func TestComputeBoundsListing1NoIngress(t *testing.T) {
	c := cacheCons()
	c.IngressIdx = -1
	b, err := computeBounds(c, MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	wantUB := []int{10, 13, 17} // paper's UB=[11,14,18] one-based
	for i := range wantUB {
		if b.UB[i] != wantUB[i] {
			t.Fatalf("UB[%d] = %d, want %d", i, b.UB[i], wantUB[i])
		}
	}
}

func TestComputeBoundsLeastConstrained(t *testing.T) {
	b, err := computeBounds(cacheCons(), LeastConstrained)
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxStages != 40 {
		t.Fatalf("MaxStages = %d, want 40", b.MaxStages)
	}
	// Ingress clamp does not apply; rigid tail from 40 stages.
	if b.UB[2] != 37 || b.UB[1] != 33 || b.UB[0] != 30 {
		t.Fatalf("UB = %v", b.UB)
	}
}

func TestComputeBoundsInfeasible(t *testing.T) {
	c := &Constraints{
		ProgLen:    25,
		IngressIdx: 24, // an ingress-only instruction that can never reach ingress
		Accesses:   []Access{{Index: 1, Demand: 1}},
	}
	if _, err := computeBounds(c, MostConstrained); err == nil {
		t.Error("infeasible constraints accepted")
	}
}

func TestConstraintsValidate(t *testing.T) {
	bad := []*Constraints{
		{ProgLen: 0, Accesses: []Access{{Index: 0}}},
		{ProgLen: 5, Accesses: []Access{{Index: 2}, {Index: 1}}}, // out of order
		{ProgLen: 5, Accesses: []Access{{Index: 7}}},             // beyond program
		{ProgLen: 5, IngressIdx: 9, Accesses: []Access{{Index: 1}}},
		{ProgLen: 5, Accesses: []Access{{Index: 1, Demand: -1}}},
		{ProgLen: 20, Accesses: make([]Access, 9)},                                   // too many slots
		{ProgLen: 5, Accesses: []Access{{Index: 1, Translate: 0b0010}}},              // translates before slot 0
		{ProgLen: 9, Accesses: []Access{{Index: 2}, {Index: 4, Translate: 0b0010}}},  // translates at the previous access
		{ProgLen: 9, Accesses: []Access{{Index: 2}, {Index: 8, Translate: 0b10000}}}, // beyond the four slots a request names
	}
	good := &Constraints{ProgLen: 9, Accesses: []Access{{Index: 2, Translate: 0b0011}, {Index: 7, Translate: 0b1001}}}
	if err := good.Validate(); err != nil {
		t.Errorf("translations inside their windows rejected: %v", err)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if err := cacheCons().Validate(); err != nil {
		t.Errorf("good constraints rejected: %v", err)
	}
}

func TestConstraintsRequestRoundTrip(t *testing.T) {
	c := cacheCons()
	r, err := c.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgLen != c.ProgLen || got.IngressIdx != c.IngressIdx || got.Elastic != c.Elastic {
		t.Errorf("meta mismatch: %+v", got)
	}
	for i := range c.Accesses {
		if got.Accesses[i] != c.Accesses[i] {
			t.Errorf("access %d: %+v != %+v", i, got.Accesses[i], c.Accesses[i])
		}
	}
}

func TestEnumerateMutantsCacheMostConstrained(t *testing.T) {
	b, err := computeBounds(cacheCons(), MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	ms := enumerate(b)
	// x1 in [1,3], x2 >= x1+3 <= 6, x3 >= x2+4 <= 10: 6+3+1 = 10 mutants.
	if len(ms) != 10 {
		t.Fatalf("mutant count = %d, want 10", len(ms))
	}
	// First mutant is the most compact placement.
	if ms[0][0] != 1 || ms[0][1] != 4 || ms[0][2] != 8 {
		t.Errorf("first mutant = %v", ms[0])
	}
	// All satisfy the constraints.
	for _, m := range ms {
		if m[0] < 1 || m[1]-m[0] < 3 || m[2]-m[1] < 4 || m[2] > 10 {
			t.Errorf("invalid mutant %v", m)
		}
	}
	if viaShape, _, err := DefaultShape().Mutants(cacheCons(), MostConstrained); err != nil || !reflect.DeepEqual(viaShape, ms) {
		t.Errorf("Shape.Mutants disagrees: %v, %v", viaShape, err)
	}
}

func TestEnumerateMutantsLCLargerThanMC(t *testing.T) {
	mc, _, _ := DefaultShape().Mutants(cacheCons(), MostConstrained)
	lc, _, _ := DefaultShape().Mutants(cacheCons(), LeastConstrained)
	nMC, nLC := len(mc), len(lc)
	if nLC <= nMC*10 {
		t.Errorf("LC mutants (%d) should vastly exceed MC (%d)", nLC, nMC)
	}
}

func TestEnumerateMutantsPhysicalCollision(t *testing.T) {
	// Two accesses 20 logical stages apart would share a physical stage.
	b := &Bounds{LB: []int{0, 20}, UB: []int{0, 20}, Gap: []int{1, 20}, MaxStages: 40}
	if got := len(enumerate(b)); got != 0 {
		t.Errorf("colliding mutants = %d, want 0", got)
	}
}

// TestEnumerationSharing pins who shares a mutant's storage. An enumeration
// is one backing array cut into capacity-capped windows, so appending to one
// mutant copies it instead of overwriting the next. A resident app holds its
// own copy of the winning mutant (cap == len), so it pins no enumeration, and
// every placement the allocator hands out — the newcomer's and each
// reallocated resident's — shares its resident's slice.
// TestSwitchAndClientAgreeOnEveryPlacement (row P3) gates the order.
func TestEnumerationSharing(t *testing.T) {
	ms, _, err := DefaultShape().Mutants(cacheCons(), MostConstrained)
	if err != nil || len(ms) < 2 {
		t.Fatalf("%d mutants, %v", len(ms), err)
	}
	next := slices.Clone(ms[1])
	if grown := append(ms[0], 99); &grown[0] == &ms[0][0] {
		t.Error("append to mutant 0 wrote into the enumeration")
	}
	if !slices.Equal(ms[1], next) {
		t.Errorf("append to mutant 0 overwrote mutant 1: %v, want %v", ms[1], next)
	}

	a := newAllocator(t, testConfig())
	sharesResident := func(pl *Placement) bool {
		app, ok := a.App(pl.FID)
		return ok && &pl.Mutant[0] == &app.Mut[0]
	}
	moved := 0
	for fid := uint16(1); fid <= 8; fid++ {
		res, err := a.Allocate(fid, cacheCons())
		if err != nil || res.Failed {
			t.Fatalf("fid %d: %v %+v", fid, err, res)
		}
		if m := res.New.Mutant; cap(m) != len(m) {
			t.Errorf("fid %d: mutant cap %d, len %d: it aliases the enumeration", fid, cap(m), len(m))
		}
		if !sharesResident(res.New) {
			t.Errorf("fid %d: its placement copies the resident's mutant", fid)
		}
		for _, pl := range res.Reallocated {
			if !sharesResident(pl) {
				t.Errorf("fid %d moved by %d: its placement copies the resident's mutant", pl.FID, fid)
			}
		}
		moved += len(res.Reallocated)
	}
	if moved == 0 {
		t.Fatal("no arrival reallocated a resident: nothing checked the shared placements")
	}
}

func TestAllocateSingleElastic(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, cacheCons())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("failed: %s", res.Reason)
	}
	if res.New == nil || len(res.New.Accesses) != 3 {
		t.Fatalf("placement = %+v", res.New)
	}
	// Aligned group: identical word ranges in all three stages.
	r0 := res.New.Accesses[0].Range
	for i, ap := range res.New.Accesses {
		if ap.Range != r0 {
			t.Errorf("access %d range %v != %v (alignment broken)", i, ap.Range, r0)
		}
	}
	// A lone elastic app gets essentially the whole pool in its stages
	// (minus the allocator's alignment slack).
	if got := r0.Hi - r0.Lo; got < uint32(testConfig().StageWords)*9/10 {
		t.Errorf("lone elastic app got %d words, want ~%d", got, testConfig().StageWords)
	}
	if len(res.Reallocated) != 0 {
		t.Errorf("spurious reallocations: %v", res.Reallocated)
	}
	if a.NumApps() != 1 {
		t.Errorf("NumApps = %d", a.NumApps())
	}
}

func TestAllocateTwoElasticDisjointStages(t *testing.T) {
	a := newAllocator(t, testConfig())
	r1, _ := a.Allocate(1, cacheCons())
	r2, err := a.Allocate(2, cacheCons())
	if err != nil || r2.Failed {
		t.Fatalf("second cache failed: %v %+v", err, r2)
	}
	// Worst-fit spreads the second instance to untouched stages.
	used := map[int]bool{}
	for _, ap := range r1.New.Accesses {
		used[ap.Logical%20] = true
	}
	for _, ap := range r2.New.Accesses {
		if used[ap.Logical%20] {
			t.Errorf("second instance shares stage %d with first", ap.Logical%20)
		}
	}
	// No reallocation needed: disjoint stages.
	if len(r2.Reallocated) != 0 {
		t.Errorf("unexpected reallocations: %d", len(r2.Reallocated))
	}
}

func TestElasticSharingAndFairness(t *testing.T) {
	cfg := testConfig()
	a := newAllocator(t, cfg)
	// Enough cache instances that stages must be shared (only stages 1..10
	// are reachable under most-constrained bounds).
	n := 8
	for i := 1; i <= n; i++ {
		res, err := a.Allocate(uint16(i), cacheCons())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("instance %d failed: %s", i, res.Reason)
		}
	}
	totals := a.ElasticTotals()
	if len(totals) != n {
		t.Fatalf("elastic totals = %v", totals)
	}
	min, max := 1<<30, 0
	for _, v := range totals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 {
		t.Fatal("an instance got zero blocks")
	}
	if float64(max)/float64(min) > 2.5 {
		t.Errorf("unfair shares: min %d max %d", min, max)
	}
}

func TestAllocateInelasticPinnedAtBottom(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, hhCons())
	if err != nil || res.Failed {
		t.Fatalf("hh failed: %v %+v", err, res)
	}
	for _, ap := range res.New.Accesses {
		if ap.Range.Lo != 0 {
			t.Errorf("inelastic access not pinned at pool start: %+v", ap)
		}
		if ap.Range.Hi != uint32(16*testConfig().BlockWords) {
			t.Errorf("demand not honored: %+v", ap)
		}
	}
}

func TestInelasticNeverReallocated(t *testing.T) {
	a := newAllocator(t, testConfig())
	a.Allocate(1, hhCons())
	hhBefore, _ := a.PlacementFor(1)
	// Admit elastic + more inelastic apps into the same stages.
	for i := 2; i <= 10; i++ {
		a.Allocate(uint16(i), cacheCons())
	}
	a.Allocate(20, lbCons())
	hhAfter, _ := a.PlacementFor(1)
	for i := range hhBefore.Accesses {
		if hhBefore.Accesses[i] != hhAfter.Accesses[i] {
			t.Errorf("inelastic app moved: %+v -> %+v", hhBefore.Accesses[i], hhAfter.Accesses[i])
		}
	}
}

func TestElasticShrinksForInelastic(t *testing.T) {
	cfg := testConfig()
	a := newAllocator(t, cfg)
	// Fill the cache-reachable stages with caches, then admit an inelastic
	// app confined (by an ingress-only instruction) to those same stages.
	for i := 1; i <= 6; i++ {
		a.Allocate(uint16(i), cacheCons())
	}
	utilBefore := a.Utilization()
	confined := &Constraints{
		Name:       "confined-hh",
		ProgLen:    9,
		IngressIdx: 8,
		Accesses:   []Access{{Index: 3, Demand: 16}, {Index: 7, Demand: 16}},
	}
	res, err := a.Allocate(100, confined)
	if err != nil || res.Failed {
		t.Fatalf("confined hh failed after caches: %v %+v", err, res)
	}
	if len(res.Reallocated) == 0 {
		t.Error("no elastic app yielded memory")
	}
	// Aligned elastic groups capped by their most-contended stage can
	// strand a little space in their other stages; allow a small dip.
	if a.Utilization() < utilBefore-0.02 {
		t.Errorf("utilization dropped: %f -> %f", utilBefore, a.Utilization())
	}
}

func TestAllocateDuplicateFID(t *testing.T) {
	a := newAllocator(t, testConfig())
	a.Allocate(1, cacheCons())
	if _, err := a.Allocate(1, cacheCons()); err == nil {
		t.Error("duplicate fid accepted")
	}
}

func TestAllocateInelasticZeroDemand(t *testing.T) {
	a := newAllocator(t, testConfig())
	c := hhCons()
	c.Accesses[0].Demand = 0
	if _, err := a.Allocate(1, c); err == nil {
		t.Error("inelastic zero demand accepted")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	a := newAllocator(t, testConfig())
	// HH mutants under most-constrained reach few stages; 16-block rows
	// exhaust them after ~NumBlocks/16 per stage.
	fails := 0
	admitted := 0
	for i := 1; i <= 200; i++ {
		res, err := a.Allocate(uint16(i), hhCons())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			fails++
		} else {
			admitted++
		}
	}
	if fails == 0 {
		t.Fatal("no allocation failures after 200 heavy hitters")
	}
	if admitted < 20 || admitted > 180 {
		t.Errorf("admitted = %d, expected tens of instances", admitted)
	}
	// Failures must not corrupt state: utilization is still sane.
	if u := a.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %f", u)
	}
}

func TestReleaseExpandsNeighbors(t *testing.T) {
	a := newAllocator(t, testConfig())
	a.Allocate(1, cacheCons())
	for i := 2; i <= 9; i++ {
		a.Allocate(uint16(i), cacheCons())
	}
	before := a.ElasticTotals()
	realloc, err := a.Release(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(realloc) == 0 {
		t.Error("no neighbor expanded after release")
	}
	after := a.ElasticTotals()
	if _, still := after[1]; still {
		t.Error("released app still present")
	}
	grew := false
	for fid, v := range after {
		if v > before[fid] {
			grew = true
		}
	}
	if !grew {
		t.Error("no app grew after release")
	}
	if _, err := a.Release(1); err == nil {
		t.Error("double release accepted")
	}
}

func TestUtilizationMonotoneUnderArrivals(t *testing.T) {
	a := newAllocator(t, testConfig())
	prev := 0.0
	for i := 1; i <= 12; i++ {
		res, err := a.Allocate(uint16(i), cacheCons())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			continue
		}
		u := a.Utilization()
		if u+1e-9 < prev {
			t.Errorf("utilization regressed at %d: %f -> %f", i, prev, u)
		}
		prev = u
	}
	if prev <= 0.3 {
		t.Errorf("cache workload utilization = %f, expected substantial", prev)
	}
}

func TestNoOverlapInvariant(t *testing.T) {
	cfg := testConfig()
	a := newAllocator(t, cfg)
	mix := []func() *Constraints{cacheCons, hhCons, lbCons}
	for i := 1; i <= 60; i++ {
		a.Allocate(uint16(i), mix[i%3]())
		if i%7 == 0 {
			a.Release(uint16(i - 3))
		}
	}
	assertNoOverlap(t, a)
}

// assertNoOverlap checks the core isolation invariant: within every stage,
// no two apps' regions intersect and all regions are in bounds.
func assertNoOverlap(t *testing.T, a *Allocator) {
	t.Helper()
	type owned struct {
		fid uint16
		r   BlockRange
	}
	perStage := map[int][]owned{}
	for _, fid := range a.FIDs() {
		app, _ := a.App(fid)
		for s, r := range app.regions {
			if r.Lo < 0 || r.Hi > a.Config().BlocksPerStage() || r.Lo >= r.Hi {
				t.Fatalf("fid %d stage %d bad range %+v", fid, s, r)
			}
			perStage[s] = append(perStage[s], owned{fid, r})
		}
	}
	for s, list := range perStage {
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				if list[i].r.overlaps(list[j].r) {
					t.Fatalf("stage %d: fid %d %+v overlaps fid %d %+v",
						s, list[i].fid, list[i].r, list[j].fid, list[j].r)
				}
			}
		}
	}
}

func TestNoOverlapProperty(t *testing.T) {
	// Property test: random arrival/departure sequences never violate
	// isolation, and elastic apps always hold at least one block per
	// accessed stage.
	f := func(seed uint8, ops [24]uint8) bool {
		a, err := New(testConfig())
		if err != nil {
			return false
		}
		mix := []func() *Constraints{cacheCons, hhCons, lbCons}
		resident := []uint16{}
		next := uint16(1)
		for _, op := range ops {
			if op%4 == 3 && len(resident) > 0 {
				victim := resident[int(op/4)%len(resident)]
				if _, err := a.Release(victim); err != nil {
					return false
				}
				out := resident[:0]
				for _, fid := range resident {
					if fid != victim {
						out = append(out, fid)
					}
				}
				resident = out
				continue
			}
			res, err := a.Allocate(next, mix[int(op)%3]())
			if err != nil {
				return false
			}
			if !res.Failed {
				resident = append(resident, next)
			}
			next++
		}
		// Isolation invariant.
		seen := map[int][]BlockRange{}
		for _, fid := range a.FIDs() {
			app, _ := a.App(fid)
			if app.Elastic && app.TotalBlocks() == 0 {
				return false
			}
			for s, r := range app.regions {
				for _, o := range seen[s] {
					if r.overlaps(o) {
						return false
					}
				}
				seen[s] = append(seen[s], r)
			}
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfgq); err != nil {
		t.Error(err)
	}
}

func TestSchemesDiffer(t *testing.T) {
	// Best-fit packs the second cache into the same stages; worst-fit
	// spreads. Compare stage footprints.
	run := func(s Scheme) map[int]bool {
		cfg := testConfig()
		cfg.Scheme = s
		a := newAllocator(t, cfg)
		a.Allocate(1, cacheCons())
		r2, _ := a.Allocate(2, cacheCons())
		out := map[int]bool{}
		for _, ap := range r2.New.Accesses {
			out[ap.Logical%20] = true
		}
		return out
	}
	wf := run(WorstFit)
	bf := run(BestFit)
	same := true
	for s := range wf {
		if !bf[s] {
			same = false
		}
	}
	if same {
		t.Error("worst-fit and best-fit chose identical stages for the contended instance")
	}
}

func TestFirstFitTakesFirstFeasible(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = FirstFit
	a := newAllocator(t, cfg)
	res, _ := a.Allocate(1, cacheCons())
	if res.New.MutantIdx != 0 {
		t.Errorf("first-fit chose mutant %d, want 0", res.New.MutantIdx)
	}
}

func TestMinReallocAvoidsDisturbance(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = MinRealloc
	a := newAllocator(t, cfg)
	for i := 1; i <= 2; i++ {
		a.Allocate(uint16(i), cacheCons())
	}
	// A 3rd instance still fits in disjoint stages (the paper's Figure 9b:
	// the first three instances obtain exclusive stages), so min-realloc
	// must disturb no one.
	res, _ := a.Allocate(3, cacheCons())
	if res.Failed {
		t.Fatal("minrealloc failed")
	}
	if len(res.Reallocated) != 0 {
		t.Errorf("minrealloc disturbed %d apps", len(res.Reallocated))
	}
}

func TestMaxRegionsPerStageCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRegionsPerStage = 3
	a := newAllocator(t, cfg)
	fails := 0
	for i := 1; i <= 40; i++ {
		res, err := a.Allocate(uint16(i), cacheCons())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			fails++
		}
	}
	if fails == 0 {
		t.Error("TCAM region cap never bound")
	}
	// Invariant: no stage exceeds the cap.
	counts := map[int]int{}
	for _, fid := range a.FIDs() {
		app, _ := a.App(fid)
		for s := range app.regions {
			counts[s]++
		}
	}
	for s, n := range counts {
		if n > 3 {
			t.Errorf("stage %d has %d regions > cap", s, n)
		}
	}
}

func TestPlacementForMissing(t *testing.T) {
	a := newAllocator(t, testConfig())
	if _, ok := a.PlacementFor(9); ok {
		t.Error("placement for absent fid")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Shape: DefaultShape(), StageWords: 10, BlockWords: 0},
		{Shape: DefaultShape(), StageWords: 10, BlockWords: 100},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config accepted: %+v", cfg)
		}
	}
}

func TestSchemeAndPolicyStrings(t *testing.T) {
	if WorstFit.String() != "wf" || BestFit.String() != "bf" || FirstFit.String() != "ff" || MinRealloc.String() != "realloc" {
		t.Error("scheme names wrong")
	}
	if MostConstrained.String() != "most-constrained" || LeastConstrained.String() != "least-constrained" {
		t.Error("policy names wrong")
	}
}

func TestLowestCommonOffset(t *testing.T) {
	s1 := &intervalSet{}
	s2 := &intervalSet{}
	s1.insert(interval{BlockRange: BlockRange{Lo: 0, Hi: 4}})
	s2.insert(interval{BlockRange: BlockRange{Lo: 6, Hi: 10}})
	off, ok := lowestCommonOffset([]*intervalSet{s1, s2}, 2, 16)
	if !ok || off != 4 {
		t.Errorf("offset = %d, %v; want 4", off, ok)
	}
	// Size 3 cannot fit between 4 and 6: lands at 10.
	off, ok = lowestCommonOffset([]*intervalSet{s1, s2}, 3, 16)
	if !ok || off != 10 {
		t.Errorf("offset = %d, %v; want 10", off, ok)
	}
	if _, ok = lowestCommonOffset([]*intervalSet{s1, s2}, 7, 16); ok {
		t.Error("impossible placement accepted")
	}
	if _, ok = lowestCommonOffset(nil, 0, 16); ok {
		t.Error("zero size accepted")
	}
}

func TestIntervalSetOps(t *testing.T) {
	s := &intervalSet{}
	s.insert(interval{BlockRange: BlockRange{Lo: 4, Hi: 8}, fid: 1})
	s.insert(interval{BlockRange: BlockRange{Lo: 0, Hi: 2}, fid: 2})
	if s.ivs[0].Lo != 0 {
		t.Error("not sorted")
	}
	if s.used() != 6 {
		t.Errorf("used = %d", s.used())
	}
	if _, ok := s.conflict(BlockRange{Lo: 2, Hi: 4}); ok {
		t.Error("false conflict")
	}
	if _, ok := s.conflict(BlockRange{Lo: 3, Hi: 5}); !ok {
		t.Error("missed conflict")
	}
	if n := s.removeOwner(1); n != 1 {
		t.Errorf("removed %d", n)
	}
	if s.used() != 2 {
		t.Errorf("used after remove = %d", s.used())
	}
}

func TestGranularityAffectsCapacity(t *testing.T) {
	// Coarser blocks, fewer of them: the 16-block HH demand means the same
	// words at 1KB granularity but fewer instances fit when each block is
	// 4KB (demand stays in blocks, as in the request format).
	run := func(blockWords int) int {
		cfg := testConfig()
		cfg.BlockWords = blockWords
		a := newAllocator(t, cfg)
		admitted := 0
		for fid := uint16(1); fid <= 100; fid++ {
			res, err := a.Allocate(fid, hhCons())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				break
			}
			admitted++
		}
		return admitted
	}
	fine := run(256)    // 1KB blocks: 368/stage
	coarse := run(1024) // 4KB blocks: 92/stage
	if coarse >= fine {
		t.Errorf("coarse capacity %d >= fine %d", coarse, fine)
	}
	// (The exact paper capacity of 23 comes from the real HH program's
	// single most-constrained mutant; this local constraint set has more
	// placement freedom — see apps.TestLBCapacityIs368 and
	// experiments.TestPureWorkloadCapacities for the exact numbers.)
}

func TestReleaseAlignedGroupsRestoresSpace(t *testing.T) {
	a := newAllocator(t, testConfig())
	// Fill with aligned caches, release all, then verify an inelastic app
	// can claim a clean pool bottom.
	for i := 1; i <= 6; i++ {
		a.Allocate(uint16(i), cacheCons())
	}
	for i := 1; i <= 6; i++ {
		if _, err := a.Release(uint16(i)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Utilization() != 0 {
		t.Fatalf("utilization %f after releasing everything", a.Utilization())
	}
	res, err := a.Allocate(100, hhCons())
	if err != nil || res.Failed {
		t.Fatalf("post-release allocation failed: %v %+v", err, res)
	}
	for _, ap := range res.New.Accesses {
		if ap.Range.Lo != 0 {
			t.Errorf("inelastic not at pool bottom after cleanup: %+v", ap)
		}
	}
}

func TestResultCountsMutants(t *testing.T) {
	a := newAllocator(t, testConfig())
	res, err := a.Allocate(1, cacheCons())
	if err != nil {
		t.Fatal(err)
	}
	if res.MutantsTotal != 10 {
		t.Errorf("MutantsTotal = %d, want 10", res.MutantsTotal)
	}
	if res.MutantsFeasible != 10 {
		t.Errorf("MutantsFeasible = %d on an empty switch", res.MutantsFeasible)
	}
}

func TestElasticTotalsExcludeInelastic(t *testing.T) {
	a := newAllocator(t, testConfig())
	a.Allocate(1, cacheCons())
	a.Allocate(2, hhCons())
	totals := a.ElasticTotals()
	if _, hasHH := totals[2]; hasHH {
		t.Error("inelastic app in elastic totals")
	}
	if totals[1] == 0 {
		t.Error("elastic total zero")
	}
}

func TestFIDsSorted(t *testing.T) {
	a := newAllocator(t, testConfig())
	for _, fid := range []uint16{5, 1, 3} {
		a.Allocate(fid, cacheCons())
	}
	fids := a.FIDs()
	for i := 1; i < len(fids); i++ {
		if fids[i-1] >= fids[i] {
			t.Fatalf("FIDs not sorted: %v", fids)
		}
	}
}

func TestAllocationDeterminism(t *testing.T) {
	// The same arrival sequence must produce byte-identical placements —
	// client and switch independently reproduce enumeration and ranking,
	// so any nondeterminism here would desynchronize them on real wires.
	run := func() map[uint16][]AccessPlacement {
		a := newAllocator(t, testConfig())
		mix := []func() *Constraints{cacheCons, hhCons, lbCons}
		for i := 1; i <= 40; i++ {
			a.Allocate(uint16(i), mix[i%3]())
			if i%5 == 0 {
				a.Release(uint16(i - 2))
			}
		}
		out := map[uint16][]AccessPlacement{}
		for _, fid := range a.FIDs() {
			if pl, ok := a.PlacementFor(fid); ok {
				out[fid] = pl.Accesses
			}
		}
		return out
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("census differs: %d vs %d", len(x), len(y))
	}
	for fid, ax := range x {
		ay := y[fid]
		if len(ax) != len(ay) {
			t.Fatalf("fid %d arity differs", fid)
		}
		for i := range ax {
			if ax[i] != ay[i] {
				t.Fatalf("fid %d access %d: %+v vs %+v", fid, i, ax[i], ay[i])
			}
		}
	}
}

// TestAllocatorChurnAllocs: a departure and an arrival among 40 residents —
// elastic caches and inelastic heavy hitters — allocate what they return
// (the Result, its placements, the admitted App) and the mutant enumeration,
// and no per-call books: no census maps, no snapshot maps, no groups built
// per candidate mutant.
func TestAllocatorChurnAllocs(t *testing.T) {
	a := newAllocator(t, testConfig())
	cons := map[uint16]*Constraints{}
	for fid := uint16(1); fid <= 40; fid++ {
		cons[fid] = cacheCons()
		if fid%4 == 0 {
			cons[fid] = hhCons()
		}
		if res, err := a.Allocate(fid, cons[fid]); err != nil || res.Failed {
			t.Fatalf("fid %d: %v %+v", fid, err, res)
		}
	}
	fid := uint16(0)
	n := testing.AllocsPerRun(200, func() {
		fid = fid%40 + 1
		if _, err := a.Release(fid); err != nil {
			t.Fatal(err)
		}
		if res, err := a.Allocate(fid, cons[fid]); err != nil || res.Failed {
			t.Fatalf("fid %d: %v %+v", fid, err, res)
		}
	})
	// The pair allocates 37, under -race too: the newcomer's App, its two
	// group copies and constraints-derived books, the winner's mutant copy,
	// each call's result, and per moved tenant a placement and its accesses.
	// The enumeration, its bounds and the elastic snapshots fill the
	// allocator's working storage. Earlier ceilings: 57, when the
	// enumeration allocated its own arrays per call (50 measured then), and
	// 42, when every call made its snapshot and the App's groups grew by
	// append (41 measured then).
	if n > 37 {
		t.Errorf("%.0f allocations per Release + Allocate, want <= 37: the enumeration, the snapshots or the books allocate per mutant or per call again", n)
	}
}
