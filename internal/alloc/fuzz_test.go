package alloc

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzAllocatorOps drives random admit / release / quarantine / evacuate /
// compact / crash-recover / readmit sequences through the allocator beside
// a reference model (opsModel) and checks, after every operation, that
// regions are disjoint in every stage, the books balance, every elastic
// group holds a block, the tables the model keeps from the reported
// placements alone equal the books (and rebuild them through Recover), a
// layout realised in place leaves no stage with more unrealised fair share
// than the waterfill's slack (the full re-lay is best effort: aligned groups
// strand holes) and grew nobody unless some stage owed more than that slack
// before growth, and a refused Allocate leaves the books exactly as they
// were.
func FuzzAllocatorOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 3, 0, 0, 3, 3, 1})                // admit a mix, release two
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 0, 3, 4, 7, 5, 9, 6, 0, 7, 0, 8, 0}) // every kind of op once
	f.Add([]byte{5, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 3, 2, 0, 7}) // a deep stack in a small pool
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		m := newOpsModel(t, data[0])
		for _, b := range data[1:min(len(data), 160)] {
			m.step(b)
			m.check(b)
		}
	})
}

// opsModel is the reference: who is resident with which constraints, which
// blocks are fenced, and — from reported placements alone — what the switch
// tables hold.
type opsModel struct {
	t      *testing.T
	a      *Allocator
	cons   map[uint16]*Constraints
	tables map[uint16]map[int]BlockRange
	fences map[int][]BlockRange
	next   uint16
	// bounded: the layout in the books came from realiseInPlace.
	bounded bool
}

func newOpsModel(t *testing.T, shape byte) *opsModel {
	cfg := DefaultConfig()
	cfg.StageWords = cfg.BlockWords * []int{368, 64, 24}[shape%3]
	cfg.Scheme = Scheme(shape / 3 % 4)
	cfg.Policy = Policy(shape / 12 % 2)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &opsModel{t: t, a: a, cons: map[uint16]*Constraints{}, tables: map[uint16]map[int]BlockRange{},
		fences: map[int][]BlockRange{}, next: 1}
}

// install records a reported placement in the model's tables.
func (m *opsModel) install(pls ...*Placement) {
	cfg := m.a.Config()
	for _, pl := range pls {
		regions := map[int]BlockRange{}
		for _, ap := range pl.Accesses {
			regions[ap.Logical%cfg.NumStages] = BlockRange{Lo: int(ap.Range.Lo) / cfg.BlockWords, Hi: int(ap.Range.Hi) / cfg.BlockWords}
		}
		m.tables[pl.FID] = regions
	}
}

func (m *opsModel) evict(fid uint16) { delete(m.cons, fid); delete(m.tables, fid) }

func (m *opsModel) fence(stage int, r BlockRange) {
	if !m.a.QuarantinedIn(stage, r.Lo) {
		return
	}
	for _, have := range m.fences[stage] {
		if have == r {
			return
		}
	}
	m.fences[stage] = append(m.fences[stage], r)
}

// pick returns the arg-th resident FID in ascending order.
func (m *opsModel) pick(arg byte) (uint16, bool) {
	fids := sortedKeys(m.tables)
	if len(fids) == 0 {
		return 0, false
	}
	return fids[int(arg)%len(fids)], true
}

func (m *opsModel) step(b byte) {
	a, arg := m.a, b/9
	defer func(was [2]uint64, held map[uint16]map[int]BlockRange) {
		if now := m.a.relayouts; m.a != a || now[1] != was[1] {
			m.bounded = false
		} else if now[0] != was[0] {
			m.bounded = true
			if now[0] == was[0]+1 {
				m.grewOnlyBeyondSlack(b, held)
			}
		}
	}(a.relayouts, regionsNow(a))
	before := dumpBooks(a)
	switch b % 9 {
	case 0, 1, 2, 3: // admit: elastic cache, heavy hitter, load balancer, unaligned elastic
		cons := []*Constraints{cacheCons(), hhCons(), lbCons(), selectCons()}[b%9]
		fid := m.next
		m.next++
		res, err := a.Allocate(fid, cons)
		if err != nil {
			m.t.Fatalf("allocate %d: %v", fid, err)
		}
		if res.Failed {
			m.untouched(before, "refused allocate")
			return
		}
		m.cons[fid] = cons
		m.install(res.New)
		m.install(res.Reallocated...)
	case 4: // release
		fid, ok := m.pick(arg)
		if !ok {
			return
		}
		changed, err := a.Release(fid)
		if err != nil {
			m.t.Fatalf("release %d: %v", fid, err)
		}
		m.evict(fid)
		m.install(changed...)
	case 5: // quarantine one block anywhere
		stage, r := int(arg)%a.cfg.NumStages, BlockRange{Lo: int(arg) % a.blocks, Hi: int(arg)%a.blocks + 1}
		changed, err := a.Quarantine(stage, r)
		if err != nil {
			m.untouched(before, "refused quarantine")
			return
		}
		m.fence(stage, r)
		m.install(changed...)
	case 6: // evacuate a resident app around its first block
		fid, ok := m.pick(arg)
		if !ok {
			return
		}
		stage := sortedKeys(m.tables[fid])[0]
		r := BlockRange{Lo: m.tables[fid][stage].Lo, Hi: m.tables[fid][stage].Lo + 1}
		res, err := a.Evacuate(fid, map[int][]BlockRange{stage: {r}})
		if err != nil {
			m.t.Fatalf("evacuate %d: %v", fid, err)
		}
		m.fence(stage, r)
		if res.Failed {
			m.evict(fid)
		} else {
			m.install(res.New)
		}
		m.install(res.Reallocated...)
	case 7: // compact the best candidate
		if cands := a.CompactionCandidates(nil); len(cands) > 0 {
			res, ok := a.CompactApp(cands[0])
			if !ok {
				m.untouched(before, "refused compaction")
				return
			}
			m.install(res.Placement)
			m.install(res.Reallocated...)
		}
	case 8: // crash: rebuild the books from the tables, then readmit most tenants
		m.a, m.bounded = m.recovered(), false
		for _, fid := range sortedKeys(m.tables) {
			if (int(fid)+int(arg))%4 == 0 {
				continue // stays pinned in recovered form until the next crash
			}
			res, err := m.a.Readmit(fid, m.cons[fid])
			if err != nil {
				m.t.Fatalf("readmit %d: %v", fid, err)
			}
			if res.Failed {
				m.evict(fid)
				continue
			}
			m.install(res.New)
			m.install(res.Reallocated...)
			m.check(b)
		}
	}
}

// grewOnlyBeyondSlack fails if the one layout an op realised in place grew
// a resident elastic group although, before anyone grew, no stage owed more
// unrealised share than the slack: blocks a departure frees wait for the
// next arrival. held is every app's regions before the op; a group that held
// nothing was placed at its share and owed nothing.
func (m *opsModel) grewOnlyBeyondSlack(op byte, held map[uint16]map[int]BlockRange) {
	a := m.a
	groups := a.elasticGroups()
	a.fairShares(groups)
	owed := make([]int, a.cfg.NumStages)
	grew := -1
	for i, eg := range groups {
		was := held[eg.app.FID][eg.g.stages[0]].Size()
		if was < 1 {
			continue
		}
		if eg.region().Size() > was {
			grew = i
		}
		for _, s := range eg.g.stages {
			owed[s] += max(eg.share-was, 0)
		}
	}
	if grew >= 0 && slices.Max(owed) <= a.slack() {
		eg := groups[grew]
		m.t.Fatalf("after op %d (kind %d): fid %d group %d grew from %+v to %+v, yet the most any stage owed was %d of slack %d\n%s",
			op, op%9, eg.app.FID, eg.g.id, held[eg.app.FID][eg.g.stages[0]], eg.region(), slices.Max(owed), a.slack(), dumpBooks(a))
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// untouched fails unless the books are what they were before a refused op.
func (m *opsModel) untouched(before, what string) {
	m.t.Helper()
	if after := dumpBooks(m.a); after != before {
		m.t.Fatalf("%s changed the books:\n%s\nwas:\n%s", what, after, before)
	}
}

// recovered builds a fresh allocator from the model's tables and fences, as
// a restarted controller does from the switch.
func (m *opsModel) recovered() *Allocator {
	a, _ := New(m.a.Config())
	for _, fid := range sortedKeys(m.tables) {
		if err := a.Recover(fid, m.tables[fid]); err != nil {
			m.t.Fatalf("recover %d: %v", fid, err)
		}
	}
	for stage, rs := range m.fences {
		for _, r := range rs {
			if _, err := a.Quarantine(stage, r); err != nil {
				m.t.Fatalf("re-fence stage %d %+v: %v", stage, r, err)
			}
		}
	}
	return a
}

func (m *opsModel) check(op byte) {
	t, a := m.t, m.a
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after op %d (kind %d): %s\n%s", op, op%9, fmt.Sprintf(format, args...), dumpBooks(a))
	}
	if err := a.AuditBooks(); err != nil {
		fail("%v", err)
	}
	// The model's tables are the books, and rebuild them.
	if got, want := a.FIDs(), sortedKeys(m.tables); !slices.Equal(got, want) {
		fail("resident %v, model %v", got, want)
	}
	rec := m.recovered()
	for fid, regions := range m.tables {
		if !maps.Equal(a.apps[fid].regions, regions) {
			fail("fid %d: books %v, tables %v (a move went unreported)", fid, a.apps[fid].regions, regions)
		}
		if !maps.Equal(rec.apps[fid].regions, regions) {
			fail("fid %d: recovered books %v, tables %v", fid, rec.apps[fid].regions, regions)
		}
	}
	if err := rec.AuditBooks(); err != nil || rec.Utilization() != a.Utilization() {
		fail("recovered books: audit %v, utilization %v vs %v", err, rec.Utilization(), a.Utilization())
	}
	// Disjoint, in bounds, and every group of an elastic app holds a block.
	for s := 0; s < a.cfg.NumStages; s++ {
		var held []BlockRange
		for _, r := range m.fences[s] {
			held = append(held, r)
		}
		for _, fid := range a.FIDs() {
			if r, ok := a.apps[fid].regions[s]; ok {
				held = append(held, r)
			}
		}
		for i, r := range held {
			if r.Lo < 0 || r.Hi > a.blocks || r.Size() < 1 {
				fail("stage %d: bad range %+v", s, r)
			}
			for _, o := range held[:i] {
				if r.overlaps(o) {
					fail("stage %d: %+v overlaps %+v", s, r, o)
				}
			}
		}
	}
	groups := a.elasticGroups()
	a.fairShares(groups)
	unrealised := make([]int, a.cfg.NumStages)
	for _, eg := range groups {
		for _, s := range eg.g.stages {
			if eg.app.regions[s] != eg.region() || eg.region().Size() < 1 {
				fail("fid %d group %d: stage %d holds %+v, the group %+v", eg.app.FID, eg.g.id, s, eg.app.regions[s], eg.region())
			}
			unrealised[s] += max(eg.share-eg.region().Size(), 0)
		}
	}
	for s, n := range unrealised {
		if m.bounded && n > a.slack() {
			fail("stage %d: %d blocks of fair share unrealised, slack is %d", s, n, a.slack())
		}
	}
}

// dumpBooks renders everything the allocator keeps, deterministically.
func dumpBooks(a *Allocator) string {
	var b strings.Builder
	for s := 0; s < a.cfg.NumStages; s++ {
		fmt.Fprintf(&b, "stage %d pinned %v elastic %v\n", s, a.pinned[s].ivs, a.elastic[s].ivs)
	}
	for _, fid := range a.FIDs() {
		app := a.apps[fid]
		fmt.Fprintf(&b, "fid %d elastic %v mutant %d %v:", fid, app.Elastic, app.MutantIdx, app.Mut)
		for _, s := range sortedKeys(app.regions) {
			fmt.Fprintf(&b, " %d:%v", s, app.regions[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
