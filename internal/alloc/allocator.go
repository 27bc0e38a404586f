package alloc

import (
	"fmt"
	"sort"
)

// Scheme selects how the allocator ranks feasible mutants (Section 4.2 and
// Figure 11).
type Scheme int

// Allocation schemes.
const (
	// WorstFit prefers stages with the most fungible memory (free plus
	// elastic-held); the paper's default, maximizing utilization.
	WorstFit Scheme = iota
	// BestFit prefers stages with the least fungible memory, maximizing
	// per-stage occupancy.
	BestFit
	// FirstFit takes the first feasible mutant in enumeration order.
	FirstFit
	// MinRealloc minimizes the number of existing elastic applications
	// disturbed by the admission.
	MinRealloc
)

// String names the scheme as in Figure 11's legend.
func (s Scheme) String() string {
	switch s {
	case WorstFit:
		return "wf"
	case BestFit:
		return "bf"
	case FirstFit:
		return "ff"
	case MinRealloc:
		return "realloc"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Config parametrizes an Allocator.
type Config struct {
	NumStages  int
	NumIngress int
	StageWords int // register words per stage
	BlockWords int // words per allocation block (granularity)
	MaxPasses  int // pass budget under the least-constrained policy
	// MaxRegionsPerStage caps the protected regions per stage, modeling
	// the TCAM bottleneck; 0 disables the cap.
	MaxRegionsPerStage int
	Policy             Policy
	Scheme             Scheme
}

// DefaultConfig mirrors the paper's testbed: 20 stages, 94,208 words per
// stage, 1 KB blocks (256 words, hence 368 blocks per stage), worst-fit,
// most-constrained.
func DefaultConfig() Config {
	return Config{
		NumStages:          20,
		NumIngress:         10,
		StageWords:         94208,
		BlockWords:         256,
		MaxPasses:          2,
		MaxRegionsPerStage: 192,
		Policy:             MostConstrained,
		Scheme:             WorstFit,
	}
}

// CheckPipeline rejects a configuration whose pipeline shape differs from the
// device's: the allocator would grant stages or words the device lacks.
func (c Config) CheckPipeline(numStages, numIngress, stageWords int) error {
	for _, f := range []struct {
		name       string
		alloc, dev int
	}{{"NumStages", c.NumStages, numStages}, {"NumIngress", c.NumIngress, numIngress}, {"StageWords", c.StageWords, stageWords}} {
		if f.alloc != f.dev {
			return fmt.Errorf("alloc: %s is %d but the pipeline's is %d", f.name, f.alloc, f.dev)
		}
	}
	return nil
}

// BlocksPerStage returns the block pool size of each stage.
func (c Config) BlocksPerStage() int { return c.StageWords / c.BlockWords }

// appGroup is a set of accesses that must receive identical block ranges
// (alignment group), placed across a set of distinct physical stages.
type appGroup struct {
	id      int
	demand  int   // blocks; 0 = elastic
	stages  []int // physical stages, access order
	logical []int // logical stages, access order
}

// App is one admitted application instance.
type App struct {
	FID       uint16
	Cons      *Constraints
	Mut       Mutant
	MutantIdx int
	Elastic   bool

	groups  []appGroup
	regions map[int]BlockRange // physical stage -> granted blocks
}

// Regions returns the app's current per-stage block grants (copy).
func (a *App) Regions() map[int]BlockRange {
	out := make(map[int]BlockRange, len(a.regions))
	for s, r := range a.regions {
		out[s] = r
	}
	return out
}

// TotalBlocks returns the blocks held across all stages.
func (a *App) TotalBlocks() int {
	t := 0
	for _, r := range a.regions {
		t += r.Size()
	}
	return t
}

// WordRange is a half-open range of register word indices.
type WordRange struct {
	Lo, Hi uint32
}

// AccessPlacement locates one access: its logical stage and word region.
type AccessPlacement struct {
	Logical int
	Range   WordRange
}

// Placement is the materialized allocation of one application: what an
// allocation-response packet carries.
type Placement struct {
	FID       uint16
	MutantIdx int
	Mutant    Mutant
	Accesses  []AccessPlacement
}

// Result reports one allocation attempt.
type Result struct {
	Failed bool
	Reason string

	New         *Placement   // nil on failure
	Reallocated []*Placement // existing apps whose regions changed

	MutantsTotal    int
	MutantsFeasible int
}

// Allocator is the switch controller's memory-allocation state: the block
// pools of every stage, the admitted applications, and the pinned positions
// of inelastic allocations.
type Allocator struct {
	cfg    Config
	blocks int

	apps    map[uint16]*App
	pinned  []*intervalSet // per stage: inelastic intervals (persistent)
	elastic []*intervalSet // per stage: elastic intervals (recomputed)

	// tel mirrors the books into occupancy gauges; it outlives the
	// allocator (see Telemetry) and resyncs after every public mutation.
	tel *Telemetry
}

// New returns an empty allocator.
func New(cfg Config) (*Allocator, error) {
	if cfg.NumStages <= 0 || cfg.StageWords <= 0 || cfg.BlockWords <= 0 {
		return nil, fmt.Errorf("alloc: bad config %+v", cfg)
	}
	if cfg.BlockWords > cfg.StageWords {
		return nil, fmt.Errorf("alloc: block (%d words) exceeds stage (%d words)", cfg.BlockWords, cfg.StageWords)
	}
	a := &Allocator{
		cfg:     cfg,
		blocks:  cfg.BlocksPerStage(),
		apps:    make(map[uint16]*App),
		pinned:  make([]*intervalSet, cfg.NumStages),
		elastic: make([]*intervalSet, cfg.NumStages),
	}
	for i := range a.pinned {
		a.pinned[i] = &intervalSet{}
		a.elastic[i] = &intervalSet{}
	}
	return a, nil
}

// Config returns the allocator configuration.
func (a *Allocator) Config() Config { return a.cfg }

// NumApps returns the number of resident applications.
func (a *Allocator) NumApps() int { return len(a.apps) }

// App returns the admitted app for fid.
func (a *Allocator) App(fid uint16) (*App, bool) {
	app, ok := a.apps[fid]
	return app, ok
}

// FIDs returns all resident FIDs in ascending order.
func (a *Allocator) FIDs() []uint16 {
	out := make([]uint16, 0, len(a.apps))
	for fid := range a.apps {
		out = append(out, fid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildGroups derives the app's alignment groups for a mutant placement.
func buildGroups(cons *Constraints, mut Mutant, numStages int) []appGroup {
	byID := map[int]*appGroup{}
	var order []int
	for i, acc := range cons.Accesses {
		id := acc.AlignGroup
		if id == 0 {
			id = -(i + 1) // ungrouped accesses get private groups
		}
		g, ok := byID[id]
		if !ok {
			g = &appGroup{id: id}
			byID[id] = g
			order = append(order, id)
		}
		if acc.Demand > g.demand {
			g.demand = acc.Demand
		}
		g.stages = append(g.stages, mut[i]%numStages)
		g.logical = append(g.logical, mut[i])
	}
	out := make([]appGroup, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// stageStats is a per-stage census used for feasibility and cost.
type stageStats struct {
	pinnedUsed    int
	elasticGroups int
	regionApps    int
	elasticFIDs   map[uint16]bool
}

func (a *Allocator) census() []stageStats {
	st := make([]stageStats, a.cfg.NumStages)
	for s := range st {
		st[s].pinnedUsed = a.pinned[s].used()
		st[s].elasticFIDs = map[uint16]bool{}
	}
	for _, app := range a.apps {
		for s := range app.regions {
			st[s].regionApps++
		}
		if !app.Elastic {
			continue
		}
		for _, g := range app.groups {
			for _, s := range g.stages {
				st[s].elasticGroups++
				st[s].elasticFIDs[app.FID] = true
			}
		}
	}
	return st
}

// feasible checks capacity feasibility of placing cons (as groups) given the
// census; placement-level checks (fragmentation) happen at commit.
func (a *Allocator) feasible(groups []appGroup, elastic bool, st []stageStats) bool {
	for _, g := range groups {
		for _, s := range g.stages {
			if a.cfg.MaxRegionsPerStage > 0 && st[s].regionApps >= a.cfg.MaxRegionsPerStage {
				return false
			}
			need := g.demand
			if elastic {
				need = 1 // a new elastic group needs at least one block
			}
			// Existing elastic groups can shrink to one block each.
			if st[s].pinnedUsed+st[s].elasticGroups+need > a.blocks {
				return false
			}
		}
	}
	return true
}

// cost ranks a mutant for the configured scheme; lower is better, compared
// lexicographically. For elastic candidates, reusing a stage-set signature
// that existing elastic groups already use is preferred (fourth component):
// identical sets stack at common offsets without fragmenting one another,
// which keeps aligned placement feasible at high occupancy.
func (a *Allocator) cost(groups []appGroup, st []stageStats, sigs map[string]bool) [5]int {
	var c [5]int
	sigBonus := 0
	overlap := 0
	for _, g := range groups {
		if sigs[groupSig(g.stages)] {
			sigBonus--
		}
		for _, s := range g.stages {
			// Only elastic occupancy marks a stage as contended: pinned
			// inelastic blocks shrink the pool but leave the remainder
			// fully fungible (Section 4.2's definition).
			if st[s].elasticGroups > 0 {
				overlap++
			}
		}
	}
	switch a.cfg.Scheme {
	case FirstFit:
		return c // enumeration order decides
	case MinRealloc:
		disturbed := map[uint16]bool{}
		for _, g := range groups {
			for _, s := range g.stages {
				for fid := range st[s].elasticFIDs {
					disturbed[fid] = true
				}
			}
		}
		c[0] = len(disturbed)
		// Tie-break like worst fit.
		c[1] = sigBonus
		for _, g := range groups {
			for _, s := range g.stages {
				c[2] += st[s].pinnedUsed
				c[3] += st[s].elasticGroups
			}
		}
	case WorstFit:
		// Worst fit prefers the most fungible memory: first stages free of
		// elastic tenants (spread — Figure 9b's disjoint placements), then
		// — once everything is occupied — established stage-set signatures
		// (identical sets stack without fragmenting aligned placement),
		// then the most fungible (least pinned) stages, then the least
		// elastic contention.
		c[0] = overlap
		c[2] = sigBonus
		for _, g := range groups {
			for _, s := range g.stages {
				c[1] += st[s].pinnedUsed
				c[3] += st[s].elasticGroups
				c[4] += st[s].regionApps
			}
		}
	case BestFit:
		// Best fit packs: most-occupied stages first.
		c[0] = -overlap
		c[2] = sigBonus
		for _, g := range groups {
			for _, s := range g.stages {
				c[1] -= st[s].pinnedUsed
				c[3] -= st[s].elasticGroups
				c[4] -= st[s].regionApps
			}
		}
	}
	return c
}

// groupSig is a stage-set signature used for placement-affinity ranking.
func groupSig(stages []int) string {
	b := make([]byte, len(stages))
	for i, s := range stages {
		b[i] = byte(s)
	}
	return string(b)
}

// elasticSignatures collects the stage-set signatures of resident elastic
// groups.
func (a *Allocator) elasticSignatures() map[string]bool {
	out := map[string]bool{}
	for _, app := range a.apps {
		if !app.Elastic {
			continue
		}
		for _, g := range app.groups {
			out[groupSig(g.stages)] = true
		}
	}
	return out
}

func lessCost(x, y [5]int) bool {
	for i := 0; i < 4; i++ {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return x[4] < y[4]
}

// Allocate admits fid with the given constraints, choosing the best feasible
// mutant under the configured policy and scheme. A nil error with
// Result.Failed set means the request was well-formed but could not be
// placed (the paper's "failed allocation" — a fast path).
func (a *Allocator) Allocate(fid uint16, cons *Constraints) (*Result, error) {
	defer a.syncTel()
	if _, dup := a.apps[fid]; dup {
		return nil, fmt.Errorf("alloc: fid %d already resident", fid)
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	if len(cons.Accesses) == 0 {
		return nil, fmt.Errorf("alloc: stateless request reached the allocator (admit it directly)")
	}
	if !cons.Elastic {
		for i, acc := range cons.Accesses {
			if acc.Demand < 1 {
				return nil, fmt.Errorf("alloc: inelastic access %d has no demand", i)
			}
		}
	}
	bounds, err := ComputeBounds(cons, a.cfg.Policy, a.cfg.NumStages, a.cfg.NumIngress, a.cfg.MaxPasses)
	if err != nil {
		return &Result{Failed: true, Reason: "infeasible-constraints"}, nil
	}
	mutants := EnumerateMutants(bounds, a.cfg.NumStages)
	st := a.census()

	sigs := a.elasticSignatures()
	type cand struct {
		idx  int
		cost [5]int
	}
	var cands []cand
	for idx, x := range mutants {
		groups := buildGroups(cons, x, a.cfg.NumStages)
		if !a.feasible(groups, cons.Elastic, st) {
			continue
		}
		cands = append(cands, cand{idx: idx, cost: a.cost(groups, st, sigs)})
	}
	res := &Result{MutantsTotal: len(mutants), MutantsFeasible: len(cands)}
	if len(cands) == 0 {
		res.Failed = true
		res.Reason = "no-feasible-mutant"
		return res, nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return lessCost(cands[i].cost, cands[j].cost)
		}
		return cands[i].idx < cands[j].idx
	})

	before := a.snapshotElasticRegions()
	// Bound the commit walk, but keep it diverse: consecutive candidates
	// under a tied cost share nearly identical stage sets and fail the
	// same way, so after the best few, sample the remainder evenly.
	// Commits rarely fail — the skyline fallback makes elastic placement
	// robust — so the bound is a backstop.
	const maxTry = 32
	try := cands
	if len(cands) > maxTry {
		try = try[:0:0]
		head := maxTry / 4
		try = append(try, cands[:head]...)
		stride := (len(cands) - head) / (maxTry - head)
		for i := head; i < len(cands); i += stride {
			try = append(try, cands[i])
		}
	}
	for _, c := range try {
		app := &App{
			FID:       fid,
			Cons:      cons,
			Mut:       mutants[c.idx],
			MutantIdx: c.idx,
			Elastic:   cons.Elastic,
			regions:   map[int]BlockRange{},
		}
		app.groups = buildGroups(cons, app.Mut, a.cfg.NumStages)
		if a.tryCommit(app) {
			res.New = a.placementFor(app)
			res.Reallocated = a.changedPlacements(before, fid)
			return res, nil
		}
	}
	res.Failed = true
	res.Reason = "placement-failed"
	return res, nil
}

// tryCommit attempts to install the app; on any failure the allocator state
// is restored exactly.
func (a *Allocator) tryCommit(app *App) bool {
	var added []int // stages where pinned intervals were inserted
	rollback := func() {
		for _, s := range added {
			a.pinned[s].removeOwner(app.FID)
		}
		delete(a.apps, app.FID)
		a.recomputeElastic()
	}

	if !app.Elastic {
		for _, g := range app.groups {
			sets := make([]*intervalSet, len(g.stages))
			for i, s := range g.stages {
				sets[i] = a.pinned[s]
			}
			off, ok := lowestCommonOffset(sets, g.demand, a.blocks)
			if !ok {
				rollback()
				return false
			}
			r := BlockRange{Lo: off, Hi: off + g.demand}
			for _, s := range g.stages {
				a.pinned[s].insert(interval{BlockRange: r, fid: app.FID, group: g.id})
				app.regions[s] = r
				added = append(added, s)
			}
		}
	}
	a.apps[app.FID] = app
	a.recomputeElastic()
	// Verify every elastic group everywhere received at least one block.
	for _, other := range a.apps {
		if !other.Elastic {
			continue
		}
		for _, g := range other.groups {
			for _, s := range g.stages {
				if other.regions[s].Size() < 1 {
					rollback()
					return false
				}
			}
		}
	}
	return true
}

// Release removes fid and lets elastic neighbors expand into the freed
// space. It returns the placements of apps whose regions changed.
func (a *Allocator) Release(fid uint16) ([]*Placement, error) {
	if _, ok := a.apps[fid]; !ok {
		return nil, fmt.Errorf("alloc: fid %d not resident", fid)
	}
	defer a.syncTel()
	before := a.snapshotElasticRegions()
	for _, s := range a.pinned {
		s.removeOwner(fid)
	}
	delete(a.apps, fid)
	a.recomputeElastic()
	return a.changedPlacements(before, fid), nil
}

// recomputeElastic rebuilds the elastic layout: progressive-filling shares
// (approximate max-min fairness, Section 4.2) followed by deterministic
// placement, largest shares first.
func (a *Allocator) recomputeElastic() {
	for _, s := range a.elastic {
		s.ivs = s.ivs[:0]
	}
	type eg struct {
		app *App
		gi  int
	}
	var groups []eg
	for _, fid := range a.FIDs() {
		app := a.apps[fid]
		if !app.Elastic {
			continue
		}
		app.regions = map[int]BlockRange{}
		for gi := range app.groups {
			groups = append(groups, eg{app: app, gi: gi})
		}
	}
	if len(groups) == 0 {
		return
	}

	// Progressive filling: grant blocks round-robin to every group that can
	// still grow in all of its stages. Rounds grant a uniform step sized by
	// the most-contended stage, so the loop converges in O(log blocks)
	// rounds rather than one block at a time, while preserving the max-min
	// outcome (equal-step growth is exactly progressive filling, batched).
	// Hold back a sliver of each stage as alignment slack: aligned groups
	// with partially-overlapping stage sets fragment one another, and a
	// 100%-full waterfill would leave no common hole for late groups. The
	// slack is why steady-state utilization converges below 1.0 (the
	// paper's Figure 7a converges to ~0.75 for the same structural
	// reason).
	slack := a.blocks / 16
	remaining := make([]int, a.cfg.NumStages)
	for s := range remaining {
		remaining[s] = a.blocks - a.pinned[s].used() - slack
		if remaining[s] < 0 {
			remaining[s] = 0
		}
	}
	shares := make([]int, len(groups))
	active := make([]bool, len(groups))
	for i := range active {
		active[i] = true
	}
	activeIn := make([]int, a.cfg.NumStages)
	for {
		for s := range activeIn {
			activeIn[s] = 0
		}
		anyActive := false
		for i, g := range groups {
			if !active[i] {
				continue
			}
			anyActive = true
			for _, s := range g.app.groups[g.gi].stages {
				activeIn[s]++
			}
		}
		if !anyActive {
			break
		}
		step := a.blocks
		for s, n := range activeIn {
			if n > 0 && remaining[s]/n < step {
				step = remaining[s] / n
			}
		}
		if step < 1 {
			step = 1
		}
		progressed := false
		for i, g := range groups {
			if !active[i] {
				continue
			}
			can := step
			for _, s := range g.app.groups[g.gi].stages {
				if remaining[s] < can {
					can = remaining[s]
				}
			}
			if can < 1 {
				active[i] = false
				continue
			}
			shares[i] += can
			for _, s := range g.app.groups[g.gi].stages {
				remaining[s] -= can
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}

	// Placement: largest first; aligned groups need one common offset
	// across all their stages. A group that cannot be placed at its share
	// shrinks until it fits.
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sig := func(i int) string {
		st := groups[i].app.groups[groups[i].gi].stages
		b := make([]byte, 0, len(st))
		for _, s := range st {
			b = append(b, byte(s))
		}
		return string(b)
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		// Identical stage sets stack consecutively (their common offsets
		// chain without stranding); larger shares go first within a set.
		if si, sj := sig(i), sig(j); si != sj {
			return si < sj
		}
		if shares[i] != shares[j] {
			return shares[i] > shares[j]
		}
		if groups[i].app.FID != groups[j].app.FID {
			return groups[i].app.FID < groups[j].app.FID
		}
		return groups[i].gi < groups[j].gi
	})
	for _, i := range order {
		g := groups[i]
		grp := g.app.groups[g.gi]
		sets := make([]*intervalSet, 0, 2*len(grp.stages))
		for _, s := range grp.stages {
			sets = append(sets, a.pinned[s], a.elastic[s])
		}
		// Fit the largest placeable size <= the fair share. Placeability
		// is monotone in size, so binary-search instead of shrinking one
		// block at a time.
		place := func(size int) (int, bool) { return lowestCommonOffset(sets, size, a.blocks) }
		size := shares[i]
		off, ok := place(size)
		if !ok {
			lo, hi := 1, size-1 // largest feasible size in [lo, hi], if any
			for lo <= hi {
				mid := (lo + hi + 1) / 2
				if o, k := place(mid); k {
					off, ok, size = o, true, mid
					lo = mid + 1
				} else {
					hi = mid - 1
				}
			}
		}
		if !ok {
			// Skyline fallback: aligned stage sets can fragment each other
			// so badly that no common hole remains; placing at the common
			// skyline (above every existing interval in the group's
			// stages) always succeeds while any room is left, at the cost
			// of stranding the holes below.
			off = 0
			for _, set := range sets {
				if n := len(set.ivs); n > 0 {
					if top := set.ivs[n-1].Hi; top > off {
						off = top
					}
				}
			}
			if off < a.blocks {
				ok = true
				if size = shares[i]; off+size > a.blocks {
					size = a.blocks - off
				}
			}
		}
		if ok {
			r := BlockRange{Lo: off, Hi: off + size}
			for _, s := range grp.stages {
				a.elastic[s].insert(interval{BlockRange: r, fid: g.app.FID, group: grp.id})
				g.app.regions[s] = r
			}
		}
	}
}

// snapshotElasticRegions captures elastic apps' regions for change
// detection.
func (a *Allocator) snapshotElasticRegions() map[uint16]map[int]BlockRange {
	out := map[uint16]map[int]BlockRange{}
	for fid, app := range a.apps {
		if app.Elastic {
			out[fid] = app.Regions()
		}
	}
	return out
}

// changedPlacements lists apps whose regions differ from the snapshot,
// excluding skip (the newly admitted or released fid).
func (a *Allocator) changedPlacements(before map[uint16]map[int]BlockRange, skip uint16) []*Placement {
	var out []*Placement
	for _, fid := range a.FIDs() {
		if fid == skip {
			continue
		}
		app := a.apps[fid]
		if !app.Elastic {
			continue
		}
		old, had := before[fid]
		if !had {
			continue
		}
		if regionsEqual(old, app.regions) {
			continue
		}
		out = append(out, a.placementFor(app))
	}
	return out
}

func regionsEqual(x map[int]BlockRange, y map[int]BlockRange) bool {
	if len(x) != len(y) {
		return false
	}
	for s, r := range x {
		if y[s] != r {
			return false
		}
	}
	return true
}

// placementFor materializes an app's word-level placement.
func (a *Allocator) placementFor(app *App) *Placement {
	p := &Placement{FID: app.FID, MutantIdx: app.MutantIdx, Mutant: app.Mut.clone()}
	for i := range app.Cons.Accesses {
		logical := app.Mut[i]
		s := logical % a.cfg.NumStages
		r := app.regions[s]
		p.Accesses = append(p.Accesses, AccessPlacement{
			Logical: logical,
			Range: WordRange{
				Lo: uint32(r.Lo * a.cfg.BlockWords),
				Hi: uint32(r.Hi * a.cfg.BlockWords),
			},
		})
	}
	return p
}

// PlacementFor returns the current placement of a resident app. Apps in
// recovered form (no constraints on file after a controller restart) have
// no materializable placement and report false; see Readmit.
func (a *Allocator) PlacementFor(fid uint16) (*Placement, bool) {
	app, ok := a.apps[fid]
	if !ok || app.Cons == nil {
		return nil, false
	}
	return a.placementFor(app), true
}

// Utilization returns the fraction of total switch register memory
// currently allocated (Figures 6, 7a, 11).
func (a *Allocator) Utilization() float64 {
	used := 0
	for s := 0; s < a.cfg.NumStages; s++ {
		used += a.pinned[s].used() + a.elastic[s].used()
	}
	return float64(used) / float64(a.cfg.NumStages*a.blocks)
}

// ElasticTotals returns per-FID total blocks of elastic apps (the fairness
// population of Figure 7d).
func (a *Allocator) ElasticTotals() map[uint16]int {
	out := map[uint16]int{}
	for fid, app := range a.apps {
		if app.Elastic {
			out[fid] = app.TotalBlocks()
		}
	}
	return out
}

// StageUsed returns the allocated blocks in one stage (tests/inspection).
func (a *Allocator) StageUsed(s int) int {
	return a.pinned[s].used() + a.elastic[s].used()
}
