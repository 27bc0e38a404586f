package alloc

import (
	"cmp"
	"fmt"
	"slices"

	"activermt/internal/packet"
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
	Shape
	StageWords int // register words per stage
	BlockWords int // words per allocation block (granularity)
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
		Shape:              DefaultShape(),
		StageWords:         94208,
		BlockWords:         256,
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
// (alignment group), placed across a set of distinct physical stages. Its r
// is the one record of what those stages hold: an empty range means nothing.
type appGroup struct {
	id     int
	demand int   // blocks; 0 = elastic
	stages []int // physical stages, access order
	r      BlockRange
}

// App is one admitted application instance.
type App struct {
	FID       uint16
	Cons      *Constraints
	Policy    Policy // the enumeration Mut and MutantIdx come from
	Mut       Mutant
	MutantIdx int
	Elastic   bool

	groups []appGroup
}

// TotalBlocks returns the blocks held across all stages.
func (a *App) TotalBlocks() int {
	t := 0
	for _, g := range a.groups {
		t += g.r.Size() * len(g.stages)
	}
	return t
}

// region returns the range the app holds in physical stage s: its accesses
// land in distinct stages, so at most one group holds s.
func (a *App) region(s int) BlockRange {
	for _, g := range a.groups {
		if slices.Contains(g.stages, s) {
			return g.r
		}
	}
	return BlockRange{}
}

// WordRange is a half-open range of register word indices.
type WordRange struct {
	Lo, Hi uint32
}

// AccessPlacement locates one access: its logical stage, the physical stage
// that maps to under the pipeline shape (Shape.Physical), and its word region.
type AccessPlacement struct {
	Logical  int
	Physical int
	Range    WordRange
}

// Placement is the materialized allocation of one application: what an
// allocation-response packet carries. MutantIdx indexes Policy's enumeration
// (Shape.Mutants).
type Placement struct {
	FID       uint16
	Policy    Policy
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

	apps    []*App         // the residents, in FID order
	pinned  []*intervalSet // per stage: inelastic intervals (persistent)
	elastic []*intervalSet // per stage: elastic intervals (mirror the elastic apps' regions)

	// relayouts counts recomputeElastic's outcomes — realised in place, full
	// re-lay taken (see Relayouts). relayOnly makes every one a full re-lay:
	// the reference the refuse-no-more regression test asks the same books
	// again as.
	relayouts [2]uint64
	relayOnly bool

	// Working storage of one mutation, kept between calls so that a mutation
	// allocates only what it returns; nothing in it outlives the call that
	// fills it.
	stats    []stageStats      // census
	sigs     map[stageSet]bool // elasticSignatures
	cands    []cand            // Allocate's feasible mutants
	groups   []appGroup        // one candidate mutant's alignment groups
	egroups  []egroup          // elasticGroups
	owners   []uint16          // disturbed
	order    []egroup          // a lay order
	setBuf   []*intervalSet    // sets
	perStage [2][]int          // fairShares' room and contention, then realiseInPlace's unrealised share
	moved    []*App            // changedPlacements' apps
	held     [2][]heldRegion   // snapshotElasticRegions' two slots
	enum     enumeration       // mutants: a resident clones the one it keeps
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
		pinned:  make([]*intervalSet, cfg.NumStages),
		elastic: make([]*intervalSet, cfg.NumStages),
		stats:   make([]stageStats, cfg.NumStages),
		sigs:    map[stageSet]bool{},
	}
	for i := range a.perStage {
		a.perStage[i] = make([]int, cfg.NumStages)
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

// find returns the index fid has, or would take, among the residents.
func (a *Allocator) find(fid uint16) (int, bool) {
	return slices.BinarySearchFunc(a.apps, fid, func(app *App, fid uint16) int { return cmp.Compare(app.FID, fid) })
}

// App returns the admitted app for fid.
func (a *Allocator) App(fid uint16) (*App, bool) {
	if i, ok := a.find(fid); ok {
		return a.apps[i], true
	}
	return nil, false
}

// admit books app as resident, in FID order.
func (a *Allocator) admit(app *App) {
	i, _ := a.find(app.FID)
	a.apps = slices.Insert(a.apps, i, app)
}

// drop removes fid from the residents, if it is one.
func (a *Allocator) drop(fid uint16) {
	if i, ok := a.find(fid); ok {
		a.apps = slices.Delete(a.apps, i, i+1)
	}
}

// FIDs returns all resident FIDs in ascending order, in a new slice.
func (a *Allocator) FIDs() []uint16 {
	out := make([]uint16, len(a.apps))
	for i, app := range a.apps {
		out[i] = app.FID
	}
	return out
}

// buildGroups derives the alignment groups of a mutant placement, in order
// of first access, into the working a.groups.
func (a *Allocator) buildGroups(cons *Constraints, mut Mutant) []appGroup {
	dst := a.groups[:0]
	for i, acc := range cons.Accesses {
		id := acc.AlignGroup
		if id == 0 {
			id = -(i + 1) // ungrouped accesses get private groups
		}
		gi := 0
		for gi < len(dst) && dst[gi].id != id {
			gi++
		}
		if gi == len(dst) {
			dst = slices.Grow(dst, 1)[:gi+1]
			dst[gi] = appGroup{id: id, stages: dst[gi].stages[:0]}
		}
		g := &dst[gi]
		g.demand = max(g.demand, acc.Demand)
		g.stages = append(g.stages, mut[i]%a.cfg.NumStages)
	}
	a.groups = dst
	return dst
}

// appGroups is buildGroups into storage an App keeps: one slice of groups
// and one of all their stages, one per access.
func (a *Allocator) appGroups(cons *Constraints, mut Mutant) []appGroup {
	out, stages := slices.Clone(a.buildGroups(cons, mut)), make([]int, 0, len(mut))
	for i, g := range out {
		stages = append(stages, g.stages...)
		out[i].stages = stages[len(stages)-len(g.stages) : len(stages) : len(stages)]
	}
	return out
}

// stageStats is a per-stage census used for feasibility and cost.
type stageStats struct {
	pinnedUsed    int
	elasticGroups int
	regionApps    int
}

// census counts every stage's occupancy from its interval sets, into storage
// the next call reuses. Between mutations every elastic group holds a block
// in each of its stages, so a stage's elastic intervals are its elastic
// groups, and its intervals but the quarantine fences are its regions.
func (a *Allocator) census() []stageStats {
	st := a.stats
	for s := range st {
		elastic := len(a.elastic[s].ivs)
		st[s] = stageStats{elasticGroups: elastic, regionApps: elastic}
		for _, iv := range a.pinned[s].ivs {
			st[s].pinnedUsed += iv.Size()
			if iv.fid != QuarantineFID {
				st[s].regionApps++
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
func (a *Allocator) cost(groups []appGroup, st []stageStats, sigs map[stageSet]bool) [5]int {
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
		c[0] = a.disturbed(groups)
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

// disturbed counts the resident elastic apps holding a group in a stage one
// of groups would occupy: the apps an admission there may move. Between
// mutations every elastic group holds a block in each of its stages, so they
// are the distinct owners of those stages' elastic intervals.
func (a *Allocator) disturbed(groups []appGroup) int {
	owners := a.owners[:0]
	for _, g := range groups {
		for _, s := range g.stages {
			for _, iv := range a.elastic[s].ivs {
				owners = append(owners, iv.fid)
			}
		}
	}
	slices.Sort(owners)
	a.owners = owners
	return len(slices.Compact(owners))
}

// stageSet is a stage-set signature used for placement-affinity ranking: a
// group's stages, each plus one, zero-padded (a group has at most one stage
// per access).
type stageSet [packet.MaxAccesses]uint16

func groupSig(stages []int) stageSet {
	var k stageSet
	for i, s := range stages {
		k[i] = uint16(s + 1)
	}
	return k
}

// elasticSignatures collects the stage-set signatures of resident elastic
// groups, into a set the next call reuses.
func (a *Allocator) elasticSignatures() map[stageSet]bool {
	clear(a.sigs)
	for _, app := range a.apps {
		if !app.Elastic {
			continue
		}
		for _, g := range app.groups {
			a.sigs[groupSig(g.stages)] = true
		}
	}
	return a.sigs
}

// cand is a feasible mutant of an Allocate and its cost.
type cand struct {
	idx  int
	cost [5]int
}

// mutants enumerates cons under the configured policy. A program that policy
// admits no mutant for at all — one longer than a pass under
// MostConstrained — is enumerated under LeastConstrained instead, so a
// multi-pass program recirculates while every program that fits in one pass
// keeps the configured policy's placements.
func (a *Allocator) mutants(cons *Constraints) ([]Mutant, Policy, error) {
	pol := a.cfg.Policy
	ms, err := a.enum.mutants(a.cfg.Shape, cons, pol)
	if (err != nil || len(ms) == 0) && pol != LeastConstrained {
		pol = LeastConstrained
		ms, err = a.enum.mutants(a.cfg.Shape, cons, pol)
	}
	return ms, pol, err
}

// Allocate admits fid with the given constraints, choosing the best feasible
// mutant under the configured policy (see mutants) and scheme. A nil error
// with Result.Failed set means the request was well-formed but could not be
// placed (the paper's "failed allocation" — a fast path).
func (a *Allocator) Allocate(fid uint16, cons *Constraints) (*Result, error) {
	if _, dup := a.find(fid); dup {
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
	mutants, pol, err := a.mutants(cons)
	if err != nil {
		return &Result{Failed: true, Reason: "infeasible-constraints"}, nil
	}
	st := a.census()
	sigs := a.elasticSignatures()
	cands := a.cands[:0]
	for idx, x := range mutants {
		groups := a.buildGroups(cons, x)
		if !a.feasible(groups, cons.Elastic, st) {
			continue
		}
		cands = append(cands, cand{idx: idx, cost: a.cost(groups, st, sigs)})
	}
	a.cands = cands
	res := &Result{MutantsTotal: len(mutants), MutantsFeasible: len(cands)}
	if len(cands) == 0 {
		res.Failed = true
		res.Reason = "no-feasible-mutant"
		return res, nil
	}
	slices.SortFunc(cands, func(x, y cand) int {
		return cmp.Or(slices.Compare(x.cost[:], y.cost[:]), cmp.Compare(x.idx, y.idx))
	})

	before := a.snapshotElasticRegions(0)
	// Bound the commit walk, but keep it diverse: consecutive candidates
	// under a tied cost share nearly identical stage sets and fail the
	// same way, so after the best few, sample the remainder evenly (in
	// place: the sample keeps the candidates' order).
	// Commits rarely fail — the skyline fallback makes elastic placement
	// robust — so the bound is a backstop.
	const maxTry = 32
	try := cands
	if len(cands) > maxTry {
		head := maxTry / 4
		stride := (len(cands) - head) / (maxTry - head)
		try = cands[:head]
		for i := head; i < len(cands); i += stride {
			try = append(try, cands[i])
		}
	}
	for _, c := range try {
		app := &App{
			FID:       fid,
			Cons:      cons,
			Policy:    pol,
			Mut:       mutants[c.idx],
			MutantIdx: c.idx,
			Elastic:   cons.Elastic,
			groups:    a.appGroups(cons, mutants[c.idx]),
		}
		if a.tryCommit(app, before) {
			app.Mut = slices.Clone(app.Mut) // the resident keeps the winner, not the enumeration
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
// is restored exactly, the elastic layout from the copy in before.
func (a *Allocator) tryCommit(app *App, before []heldRegion) bool {
	rollback := func() {
		if !app.Elastic {
			a.unpin(app) // the intervals inserted so far
		}
		a.drop(app.FID)
		a.restoreElastic(before)
	}

	if !app.Elastic {
		for gi := range app.groups {
			g := &app.groups[gi]
			off, ok := lowestCommonOffset(a.sets(g, false), g.demand, a.blocks)
			if !ok {
				rollback()
				return false
			}
			g.r = BlockRange{Lo: off, Hi: off + g.demand}
			a.pin(app.FID, g)
		}
	}
	a.admit(app)
	if !a.recomputeElastic() {
		rollback()
		return false
	}
	return true
}

// pin books g's range in the pinned sets of its stages.
func (a *Allocator) pin(fid uint16, g *appGroup) {
	for _, s := range g.stages {
		a.pinned[s].insert(interval{BlockRange: g.r, fid: fid})
	}
}

// unpin drops app's intervals from the pinned sets of its stages.
func (a *Allocator) unpin(app *App) {
	for _, g := range app.groups {
		for _, s := range g.stages {
			a.pinned[s].removeOwner(app.FID)
		}
	}
}

// Release removes fid and lets elastic neighbors expand into the freed
// space. It returns the placements of apps whose regions changed.
func (a *Allocator) Release(fid uint16) ([]*Placement, error) {
	app, ok := a.App(fid)
	if !ok {
		return nil, fmt.Errorf("alloc: fid %d not resident", fid)
	}
	before := a.snapshotElasticRegions(0)
	a.unpin(app)
	a.drop(fid)
	a.recomputeFreed(before)
	return a.changedPlacements(before, fid), nil
}

// recomputeFreed is recomputeElastic after a tenant left: a re-lay that
// squeezes a neighbor out is no way to use the freed space, so everyone then
// stays where before has them.
func (a *Allocator) recomputeFreed(before []heldRegion) {
	if !a.recomputeElastic() {
		a.restoreElastic(before)
	}
}

// egroup is one alignment group of a resident elastic app with the fair
// share the waterfill computed for it.
type egroup struct {
	app   *App
	g     *appGroup
	share int
	full  bool // the waterfill can grow it no more
}

// recomputeElastic brings the elastic layout up to date after any mutation
// of the books: progressive-filling shares (approximate max-min fairness,
// Section 4.2), realised against the current layout where that is possible
// (realiseInPlace) and by a full re-lay, largest shares first, where it is
// not. The layout is therefore history-dependent: a caller that must undo a
// mutation restores a saved copy (restoreElastic) instead of recomputing. It
// reports whether every elastic group holds a block: false means the layout
// squeezed a tenant out.
func (a *Allocator) recomputeElastic() bool {
	groups := a.elasticGroups()
	a.fairShares(groups)
	if !a.relayOnly && a.realiseInPlace(groups) {
		a.relayouts[0]++
		return true
	}
	a.relayouts[1]++
	return a.relay(groups)
}

// elasticGroups lists the alignment groups of the resident elastic apps, by
// FID and group, shares not yet computed, in storage the next call reuses.
func (a *Allocator) elasticGroups() []egroup {
	groups := a.egroups[:0]
	for _, app := range a.apps {
		if app.Elastic {
			for gi := range app.groups {
				groups = append(groups, egroup{app: app, g: &app.groups[gi]})
			}
		}
	}
	a.egroups = groups
	return groups
}

// clearElastic empties the elastic interval sets, for a caller about to
// rebuild them from regions.
func (a *Allocator) clearElastic() {
	for _, s := range a.elastic {
		s.ivs = s.ivs[:0]
	}
}

// fairShares fills in every group's share by progressive filling.
func (a *Allocator) fairShares(groups []egroup) {
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
	remaining, activeIn := a.perStage[0], a.perStage[1]
	for s := range remaining {
		remaining[s] = max(a.blocks-a.pinned[s].used()-a.slack(), 0)
	}
	for {
		clear(activeIn)
		anyActive := false
		for _, eg := range groups {
			if eg.full {
				continue
			}
			anyActive = true
			for _, s := range eg.g.stages {
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
		step = max(step, 1)
		progressed := false
		for i := range groups {
			eg := &groups[i]
			if eg.full {
				continue
			}
			can := step
			for _, s := range eg.g.stages {
				can = min(can, remaining[s])
			}
			if can < 1 {
				eg.full = true
				continue
			}
			eg.share += can
			for _, s := range eg.g.stages {
				remaining[s] -= can
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
}

// slack is the sliver of every stage the waterfill holds back.
func (a *Allocator) slack() int { return a.blocks / 16 }

// layOrder sorts groups into the order they are laid into free space:
// identical stage sets consecutively (their common offsets chain without
// stranding), larger shares first within a set, then as given (FID and
// group).
func layOrder(groups []egroup) {
	slices.SortStableFunc(groups, func(x, y egroup) int {
		return cmp.Or(slices.Compare(x.g.stages, y.g.stages), cmp.Compare(y.share, x.share))
	})
}

// sets returns the interval sets a placement of g must avoid — the pinned
// sets of its stages and, for an elastic group, their elastic sets — in
// storage the next call reuses.
func (a *Allocator) sets(g *appGroup, elastic bool) []*intervalSet {
	sets := a.setBuf[:0]
	for _, s := range g.stages {
		sets = append(sets, a.pinned[s])
		if elastic {
			sets = append(sets, a.elastic[s])
		}
	}
	a.setBuf = sets
	return sets
}

// setRegion moves the group to r in every one of its stages.
func (a *Allocator) setRegion(eg egroup, r BlockRange) {
	eg.g.r = r
	for _, s := range eg.g.stages {
		a.elastic[s].removeOwner(eg.app.FID)
		a.elastic[s].insert(interval{BlockRange: r, fid: eg.app.FID})
	}
}

// room returns the free blocks directly below and above r that are common to
// all of g's stages, counting nothing at or beyond limit.
func (a *Allocator) room(g *appGroup, r BlockRange, limit int) (below, above int) {
	below, above = r.Lo, max(limit-r.Hi, 0)
	for _, set := range a.sets(g, true) {
		b, t := set.room(r, limit)
		below, above = min(below, b), min(above, t)
	}
	return below, above
}

// realiseInPlace realises the shares against the current layout, touching
// only what has to change: a resident group keeps its region, cut at the
// edge that borders the larger free hole when it is above its share; a
// newcomer takes the lowest common offset that holds its share; once some
// stage owes more unrealised share than the slack, a group below its share
// grows into the free space next to it, never into the slack at the top of a
// stage. It reports true only with every group placed, and false — leaving a
// half-edited layout for relay to overwrite — when a resident collides with a
// pinned interval, a newcomer cannot get its share, or some stage is left with
// more unrealised share than the slack the waterfill already holds back.
func (a *Allocator) realiseInPlace(groups []egroup) bool {
	a.clearElastic()
	newcomers := a.order[:0]
	for _, eg := range groups {
		r := eg.g.r
		if r.Size() < 1 {
			newcomers = append(newcomers, eg)
			continue
		}
		if eg.share < 1 {
			return false
		}
		for _, set := range a.sets(eg.g, true) {
			if _, clash := set.conflict(r); clash {
				return false
			}
		}
		a.setRegion(eg, r)
	}
	for _, eg := range groups {
		r := eg.g.r
		if over := r.Size() - eg.share; over > 0 {
			if below, above := a.room(eg.g, r, a.blocks); below > above {
				r.Lo += over
			} else {
				r.Hi -= over
			}
			a.setRegion(eg, r)
		}
	}
	a.order = newcomers
	layOrder(newcomers)
	for _, eg := range newcomers {
		off, ok := lowestCommonOffset(a.sets(eg.g, true), eg.share, a.blocks)
		if !ok {
			return false
		}
		a.setRegion(eg, BlockRange{Lo: off, Hi: off + eg.share})
	}
	// Growth waits until some stage owes more than the slack: the blocks a
	// departure frees stay free for the next arrival instead of growing the
	// neighbours that arrival would cut back.
	unrealised := a.perStage[0]
	clear(unrealised)
	for _, eg := range groups {
		for _, s := range eg.g.stages {
			unrealised[s] += max(eg.share-eg.g.r.Size(), 0)
		}
	}
	if slices.Max(unrealised) <= a.slack() {
		return true
	}
	clear(unrealised)
	for _, eg := range groups {
		r := eg.g.r
		if want := eg.share - r.Size(); want > 0 {
			below, above := a.room(eg.g, r, a.blocks-a.slack())
			up := min(want, above)
			down := min(want-up, below)
			r = BlockRange{Lo: r.Lo - down, Hi: r.Hi + up}
			a.setRegion(eg, r)
			for _, s := range eg.g.stages {
				if unrealised[s] += eg.share - r.Size(); unrealised[s] > a.slack() {
					return false
				}
			}
		}
	}
	return true
}

// relay lays the whole elastic set out afresh, in layOrder; aligned groups
// need one common offset across all their stages, and a group that cannot be
// placed at its share shrinks until it fits. It reports whether every group
// got a block.
func (a *Allocator) relay(groups []egroup) bool {
	a.clearElastic()
	for _, eg := range groups {
		eg.g.r = BlockRange{}
	}
	order := append(a.order[:0], groups...)
	a.order = order
	layOrder(order)
	placed := true
	for _, eg := range order {
		sets := a.sets(eg.g, true)
		// Fit the largest placeable size <= the fair share. Placeability
		// is monotone in size, so binary-search instead of shrinking one
		// block at a time.
		size := eg.share
		off, ok := lowestCommonOffset(sets, size, a.blocks)
		if !ok {
			lo, hi := 1, size-1 // largest feasible size in [lo, hi], if any
			for lo <= hi {
				mid := (lo + hi + 1) / 2
				if o, k := lowestCommonOffset(sets, mid, a.blocks); k {
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
					off = max(off, set.ivs[n-1].Hi)
				}
			}
			size = min(eg.share, a.blocks-off)
			ok = size > 0
		}
		if ok {
			a.setRegion(eg, BlockRange{Lo: off, Hi: off + size})
		}
		placed = placed && ok
	}
	return placed
}

// heldRegion is what one alignment group of an elastic app holds: an empty
// range means nothing.
type heldRegion struct {
	app *App
	gi  int // index into app.groups
	BlockRange
}

// snapshotElasticRegions captures the elastic apps' regions, by FID and
// group, for change detection and rollback, into working slot 0, or 1 for
// Fence: its snapshot is live across the Allocate it calls.
func (a *Allocator) snapshotElasticRegions(slot int) []heldRegion {
	out := a.held[slot][:0]
	for _, app := range a.apps {
		if app.Elastic {
			for gi, g := range app.groups {
				out = append(out, heldRegion{app: app, gi: gi, BlockRange: g.r})
			}
		}
	}
	a.held[slot] = out
	return out
}

// restoreElastic puts the elastic layout back to a snapshot: the regions of
// every elastic app still resident and the interval sets that mirror them.
func (a *Allocator) restoreElastic(saved []heldRegion) {
	a.clearElastic()
	for _, h := range saved {
		if cur, _ := a.App(h.app.FID); cur != h.app {
			continue // gone (or replaced) since the snapshot
		}
		g := &h.app.groups[h.gi]
		g.r = BlockRange{}
		if h.Size() > 0 {
			a.setRegion(egroup{app: h.app, g: g}, h.BlockRange)
		}
	}
}

// changedPlacements lists, by FID, the apps of the snapshot still resident
// whose regions differ from it, excluding skip (the newly admitted or
// released fid).
func (a *Allocator) changedPlacements(before []heldRegion, skip uint16) []*Placement {
	changed := a.moved[:0]
	for i := 0; i < len(before); {
		app, moved := before[i].app, false
		for ; i < len(before) && before[i].app == app; i++ {
			moved = moved || app.groups[before[i].gi].r != before[i].BlockRange
		}
		if cur, _ := a.App(app.FID); moved && app.FID != skip && cur == app {
			changed = append(changed, app)
		}
	}
	out := make([]*Placement, len(changed))
	for i, app := range changed {
		out[i] = a.placementFor(app)
	}
	clear(changed)
	a.moved = changed
	return out
}

// placementFor materializes an app's word-level placement. It shares the
// app's mutant, which nothing writes to.
func (a *Allocator) placementFor(app *App) *Placement {
	p := &Placement{FID: app.FID, Policy: app.Policy, MutantIdx: app.MutantIdx, Mutant: app.Mut,
		Accesses: make([]AccessPlacement, 0, len(app.Mut))}
	for _, logical := range app.Mut {
		s := a.cfg.Physical(logical)
		r := app.region(s)
		p.Accesses = append(p.Accesses, AccessPlacement{
			Logical:  logical,
			Physical: s,
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
	app, ok := a.App(fid)
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
	for _, app := range a.apps {
		if app.Elastic {
			out[app.FID] = app.TotalBlocks()
		}
	}
	return out
}

// Relayouts returns how many elastic re-layouts this allocator realised in
// place and how many took the full re-lay.
func (a *Allocator) Relayouts() (inplace, full uint64) { return a.relayouts[0], a.relayouts[1] }

// StageUsed returns the allocated blocks in one stage.
func (a *Allocator) StageUsed(s int) int {
	return a.pinned[s].used() + a.elastic[s].used()
}
