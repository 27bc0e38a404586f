package alloc

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"testing"
)

// FuzzAllocatorOps drives random admit / release / fence / compact /
// crash-recover / readmit sequences through the allocator beside a
// reference model (opsModel) and checks, after every operation, that every
// block a Fence was given is fenced, regions and fences are disjoint in
// every stage, the books balance, every elastic
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

	// Working storage of step and check, reused across ops; rec is the
	// tables recovered into books, until the tables or fences change.
	rec    *Allocator
	held   map[uint16]map[int]BlockRange // the tables before the op
	books  [2][]byte                     // appendBooks before and after a refusable op
	ranges [][]BlockRange                // check's ranges per stage
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
		fences: map[int][]BlockRange{}, next: 1, held: map[uint16]map[int]BlockRange{}, ranges: make([][]BlockRange, cfg.NumStages)}
}

// install records a reported placement in the model's tables, in a new map:
// step's copy of the tables before the op shares the old ones.
func (m *opsModel) install(pls ...*Placement) {
	cfg := m.a.Config()
	for _, pl := range pls {
		regions := map[int]BlockRange{}
		for _, ap := range pl.Accesses {
			regions[ap.Logical%cfg.NumStages] = BlockRange{Lo: int(ap.Range.Lo) / cfg.BlockWords, Hi: int(ap.Range.Hi) / cfg.BlockWords}
		}
		if old, ok := m.tables[pl.FID]; !ok || !maps.Equal(old, regions) {
			m.tables[pl.FID] = regions
			m.rec = nil
		}
	}
}

func (m *opsModel) evict(fid uint16) { delete(m.cons, fid); delete(m.tables, fid); m.rec = nil }

// fence runs one Fence of single blocks, fails unless it fenced every one,
// and records its fences, evictions and moves.
func (m *opsModel) fence(bad map[int][]BlockRange) {
	f := m.a.Fence(bad)
	for stage, rs := range bad {
		for _, r := range rs {
			if !m.a.QuarantinedIn(stage, r.Lo) {
				m.t.Fatalf("fence %v left stage %d block %d unfenced\n%s", bad, stage, r.Lo, dumpBooks(m.a))
			}
			if !slices.Contains(m.fences[stage], r) {
				m.fences[stage] = append(m.fences[stage], r)
				m.rec = nil
			}
		}
	}
	for _, fid := range f.Evicted {
		m.evict(fid)
	}
	m.install(f.Moved...)
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
	// check holds the tables equal to the books between ops, so a copy of
	// the tables is what every app held before this one.
	clear(m.held)
	maps.Copy(m.held, m.tables)
	defer func(was [2]uint64) {
		if now := m.a.relayouts; m.a != a || now[1] != was[1] {
			m.bounded = false
		} else if now[0] != was[0] {
			m.bounded = true
			if now[0] == was[0]+1 {
				m.grewOnlyBeyondSlack(b, m.held)
			}
		}
	}(a.relayouts)
	switch b % 9 {
	case 0, 1, 2, 3, 7: // ops that may be refused, leaving the books untouched
		m.books[0] = appendBooks(m.books[0][:0], a)
	}
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
			m.untouched("refused allocate")
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
	case 5: // fence one block anywhere, free or held
		m.fence(map[int][]BlockRange{int(arg) % a.cfg.NumStages: {{Lo: int(arg) % a.blocks, Hi: int(arg)%a.blocks + 1}}})
	case 6: // fence a resident's first block and one more block anywhere
		fid, ok := m.pick(arg)
		if !ok {
			return
		}
		stage := sortedKeys(m.tables[fid])[0]
		lo, s2, lo2 := m.tables[fid][stage].Lo, int(arg)*7%a.cfg.NumStages, int(arg)*13%a.blocks
		bad := map[int][]BlockRange{stage: {{Lo: lo, Hi: lo + 1}}}
		if s2 != stage || lo2 != lo {
			bad[s2] = append(bad[s2], BlockRange{Lo: lo2, Hi: lo2 + 1})
		}
		m.fence(bad)
	case 7: // compact the best candidate
		if cands := a.CompactionCandidates(nil); len(cands) > 0 {
			res, ok := a.CompactApp(cands[0])
			if !ok {
				m.untouched("refused compaction")
				return
			}
			m.install(res.Placement)
			m.install(res.Reallocated...)
		}
	case 8: // crash: rebuild the books from the tables, then readmit most tenants
		if m.rec == nil {
			m.rec = m.recovered()
		}
		m.a, m.rec, m.bounded = m.rec, nil, false
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
		if eg.g.r.Size() > was {
			grew = i
		}
		for _, s := range eg.g.stages {
			owed[s] += max(eg.share-was, 0)
		}
	}
	if grew >= 0 && slices.Max(owed) <= a.slack() {
		eg := groups[grew]
		m.t.Fatalf("after op %d (kind %d): fid %d group %d grew from %+v to %+v, yet the most any stage owed was %d of slack %d\n%s",
			op, op%9, eg.app.FID, eg.g.id, held[eg.app.FID][eg.g.stages[0]], eg.g.r, slices.Max(owed), a.slack(), dumpBooks(a))
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
func (m *opsModel) untouched(what string) {
	m.t.Helper()
	if m.books[1] = appendBooks(m.books[1][:0], m.a); !bytes.Equal(m.books[1], m.books[0]) {
		m.t.Fatalf("%s changed the books:\n%s\nwas:\n%s", what, m.books[1], m.books[0])
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
	if f := a.Fence(m.fences); f.Fenced != a.QuarantinedBlocks() || f.Evacuated != 0 {
		m.t.Fatalf("re-fence %v over the recovered tables: %+v", m.fences, f)
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
	if len(a.apps) != len(m.tables) {
		fail("resident %v, model %v", a.FIDs(), sortedKeys(m.tables))
	}
	if m.rec == nil {
		m.rec = m.recovered()
	}
	rec := m.rec
	for fid, regions := range m.tables {
		app, ok := a.App(fid)
		if !ok {
			fail("resident %v, model %v", a.FIDs(), sortedKeys(m.tables))
		}
		if !holds(app, regions) {
			fail("fid %d: books %v, tables %v (a move went unreported)", fid, regionsOf(app), regions)
		}
		if !holds(appOf(rec, fid), regions) {
			fail("fid %d: recovered books %v, tables %v", fid, regionsOf(appOf(rec, fid)), regions)
		}
	}
	if err := rec.AuditBooks(); err != nil || rec.Utilization() != a.Utilization() {
		fail("recovered books: audit %v, utilization %v vs %v", err, rec.Utilization(), a.Utilization())
	}
	// Disjoint, in bounds, and every group of an elastic app holds a block.
	ranges := m.ranges
	for s := range ranges {
		ranges[s] = append(ranges[s][:0], m.fences[s]...)
	}
	for _, app := range a.apps {
		for _, g := range app.groups {
			for _, s := range g.stages {
				if g.r.Size() > 0 || app.Elastic {
					ranges[s] = append(ranges[s], g.r)
				}
			}
		}
	}
	for s, held := range ranges {
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
	m.walkedCounts(fail)
	groups := a.elasticGroups()
	a.fairShares(groups)
	unrealised := make([]int, a.cfg.NumStages)
	for _, eg := range groups {
		for _, s := range eg.g.stages {
			unrealised[s] += max(eg.share-eg.g.r.Size(), 0)
		}
	}
	for s, n := range unrealised {
		if m.bounded && n > a.slack() {
			fail("stage %d: %d blocks of fair share unrealised, slack is %d", s, n, a.slack())
		}
	}
}

// walkedCounts fails unless the residents are in strictly ascending FID
// order and census and disturbed, which read the interval sets, give the
// counts a walk of the residents' groups gives: a stage's elastic groups,
// its groups holding a region, and, for each resident's groups as a
// candidate, the elastic apps sharing a stage with it.
func (m *opsModel) walkedCounts(fail func(string, ...any)) {
	a := m.a
	fids := a.FIDs()
	for i := 1; i < len(fids); i++ {
		if fids[i-1] >= fids[i] {
			fail("FIDs %v not strictly ascending", fids)
		}
	}
	want := make([]stageStats, a.cfg.NumStages)
	for s := range want {
		want[s].pinnedUsed = a.pinned[s].used()
	}
	for _, app := range a.apps {
		for _, g := range app.groups {
			for _, s := range g.stages {
				if g.r.Size() > 0 {
					want[s].regionApps++
				}
				if app.Elastic {
					want[s].elasticGroups++
				}
			}
		}
	}
	if got := a.census(); !slices.Equal(got, want) {
		fail("census %v, the residents' groups give %v", got, want)
	}
	for _, cand := range a.apps {
		n := 0
		for _, app := range a.apps {
			if app.Elastic && shareStage(app.groups, cand.groups) {
				n++
			}
		}
		if got := a.disturbed(cand.groups); got != n {
			fail("disturbed by fid %d's groups: %d, the residents' groups give %d", cand.FID, got, n)
		}
	}
}

// shareStage reports whether two sets of groups occupy a common stage.
func shareStage(x, y []appGroup) bool {
	for _, gx := range x {
		for _, gy := range y {
			for _, s := range gx.stages {
				if slices.Contains(gy.stages, s) {
					return true
				}
			}
		}
	}
	return false
}

// holds reports whether app's groups hold exactly the regions of tables.
func holds(app *App, tables map[int]BlockRange) bool {
	n := 0
	for _, g := range app.groups {
		for _, s := range g.stages {
			if g.r.Size() > 0 {
				n++
				if r, ok := tables[s]; !ok || r != g.r {
					return false
				}
			}
		}
	}
	return n == len(tables)
}

// dumpBooks renders everything the allocator keeps, deterministically.
func dumpBooks(a *Allocator) string { return string(appendBooks(nil, a)) }

// appendBooks is dumpBooks into dst: the interval sets of every stage, then
// every resident's mutant and the range of each of its groups, by stage.
func appendBooks(dst []byte, a *Allocator) []byte {
	num := func(n int) { dst = strconv.AppendInt(append(dst, ' '), int64(n), 10) }
	ivs := func(name string, set *intervalSet) {
		dst = append(dst, name...)
		for _, iv := range set.ivs {
			num(int(iv.fid))
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(iv.Lo), 10)
			dst = append(dst, '-')
			dst = strconv.AppendInt(dst, int64(iv.Hi), 10)
		}
	}
	for s := 0; s < a.cfg.NumStages; s++ {
		dst = append(dst, "stage"...)
		num(s)
		ivs(" pinned", a.pinned[s])
		ivs(" elastic", a.elastic[s])
		dst = append(dst, '\n')
	}
	for _, app := range a.apps {
		dst = append(dst, "fid"...)
		num(int(app.FID))
		dst = strconv.AppendBool(append(dst, " elastic "...), app.Elastic)
		dst = append(dst, " mutant"...)
		num(app.MutantIdx)
		for _, l := range app.Mut {
			num(l)
		}
		dst = append(dst, " groups"...)
		for _, g := range app.groups {
			for _, s := range g.stages {
				num(s)
			}
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(g.r.Lo), 10)
			dst = append(dst, '-')
			dst = strconv.AppendInt(dst, int64(g.r.Hi), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}
