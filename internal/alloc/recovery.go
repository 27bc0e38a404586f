package alloc

import (
	"cmp"
	"fmt"
	"slices"
)

// Controller crash-recovery and memory-quarantine support. The switch
// tables (protection TCAM regions) survive a control-plane crash, so a
// restarted controller rebuilds its allocation books by reading them back:
// each resident FID is re-registered at its installed regions, pinned in
// place and without constraints (those live client-side). When the client's
// retransmitted allocation request arrives, Readmit upgrades the recovered
// entry to full state by matching the constraints against the installed
// placement. Fence implements graceful degradation when a stage's SRAM is
// corrupted: the bad blocks are fenced off under a reserved owner and the
// applications that held them are re-placed around them.

// QuarantineFID is the reserved interval owner of quarantined blocks; it is
// never a valid application FID.
const QuarantineFID uint16 = 0xFFFF

// Recover re-registers fid as resident at the given per-stage block
// regions, as read back from the switch tables after a controller restart,
// booked as one single-stage group per region. The app is held pinned at
// exactly those regions (even if it was elastic before the crash) until
// Readmit restores its constraints — conservative, but guarantees the data
// plane stays consistent with the books. Booking a region moves nobody, so a
// region overlapping any booked interval, pinned or elastic, is refused;
// every region is checked before any is booked, so a rejected call books
// nothing.
func (a *Allocator) Recover(fid uint16, regions map[int]BlockRange) error {
	if fid == QuarantineFID {
		return fmt.Errorf("alloc: fid %d is reserved", fid)
	}
	if _, dup := a.find(fid); dup {
		return fmt.Errorf("alloc: fid %d already resident", fid)
	}
	stages := make([]int, 0, len(regions))
	for s := range regions {
		stages = append(stages, s)
	}
	slices.Sort(stages)
	for _, s := range stages {
		r := regions[s]
		if s < 0 || s >= a.cfg.NumStages || r.Lo < 0 || r.Hi > a.blocks || r.Size() < 1 {
			return fmt.Errorf("alloc: recovered region %+v at stage %d out of range", r, s)
		}
		for _, set := range []*intervalSet{a.pinned[s], a.elastic[s]} {
			if iv, clash := set.conflict(r); clash {
				return fmt.Errorf("alloc: recovered region %+v at stage %d overlaps fid %d", r, s, iv.fid)
			}
		}
	}
	app := &App{FID: fid, groups: make([]appGroup, len(stages))}
	for i, s := range stages {
		app.groups[i] = appGroup{demand: regions[s].Size(), stages: stages[i : i+1 : i+1], r: regions[s]}
		a.pin(fid, &app.groups[i])
	}
	a.admit(app)
	return nil
}

// Recovered reports whether fid is resident in recovered form: pinned at
// its pre-crash regions with no constraints on file.
func (a *Allocator) Recovered(fid uint16) bool {
	app, ok := a.App(fid)
	return ok && app.Cons == nil
}

// Readmit upgrades a recovered app to fully-admitted state using the
// constraints from the client's retransmitted allocation request. The
// mutant is recovered by matching each candidate's physical projection
// against the installed regions; if none matches (tables and request
// disagree), the recovered placement is discarded and a fresh allocation is
// attempted.
func (a *Allocator) Readmit(fid uint16, cons *Constraints) (*Result, error) {
	app, ok := a.App(fid)
	if !ok || app.Cons != nil {
		return nil, fmt.Errorf("alloc: fid %d not in recovered state", fid)
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	evict := func() {
		a.unpin(app)
		a.drop(fid)
	}
	if len(cons.Accesses) == 0 {
		// Stateless request against a stateful recovered entry: the tables
		// lied or the client changed programs; start over.
		evict()
		return nil, fmt.Errorf("alloc: fid %d readmitted stateless against recovered regions", fid)
	}
	mutants, pol, err := a.mutants(cons)
	if err != nil {
		evict()
		return &Result{Failed: true, Reason: "infeasible-constraints"}, nil
	}
	match := a.matchMutant(cons, mutants, app)
	if match < 0 {
		// No mutant projects onto the installed stages: re-place from
		// scratch (the recovered regions are freed first).
		evict()
		return a.Allocate(fid, cons)
	}

	app.Cons = cons
	app.Policy = pol
	app.Mut = slices.Clone(mutants[match])
	app.MutantIdx = match
	app.Elastic = cons.Elastic
	groups := a.appGroups(cons, app.Mut)
	for gi := range groups {
		groups[gi].r = app.region(groups[gi].stages[0]) // matchMutant: every stage of the group holds it
	}
	app.groups = groups
	res := &Result{MutantsTotal: len(mutants), MutantsFeasible: 1}
	if cons.Elastic {
		// Restore elasticity: drop the pinned placeholder and let the
		// shared waterfill resize the app where it stands (its regions may
		// still move — the normal reallocation protocol informs the client).
		before := a.snapshotElasticRegions(0)
		a.unpin(app)
		if !a.recomputeElastic() {
			// Could not re-place elastically (quarantine or new tenants
			// squeezed it out); evict and report failure, the neighbors
			// back where the tables have them.
			evict()
			a.restoreElastic(before)
			res.Failed = true
			res.Reason = "readmit-placement-failed"
			return res, nil
		}
		res.New = a.placementFor(app)
		res.Reallocated = a.changedPlacements(before, fid)
		return res, nil
	}
	res.New = a.placementFor(app)
	return res, nil
}

// matchMutant returns the index of the first mutant whose physical stage
// projection and alignment structure are consistent with the regions the
// recovered app holds, one per group, or -1. A mutant's accesses land in
// distinct physical stages, so one whose every access finds its region
// matches when it has one access per installed region.
func (a *Allocator) matchMutant(cons *Constraints, mutants []Mutant, rec *App) int {
	for idx, m := range mutants {
		ok := true
		for _, g := range a.buildGroups(cons, m) {
			var common BlockRange
			for i, s := range g.stages {
				r := rec.region(s)
				if r.Size() < max(g.demand, 1) {
					ok = false
					break
				}
				if i == 0 {
					common = r
				} else if r != common {
					ok = false // aligned accesses must share one range
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok && len(m) == len(rec.groups) {
			return idx
		}
	}
	return -1
}

// QuarantinedIn reports whether the given block of a stage is quarantined.
func (a *Allocator) QuarantinedIn(stage, block int) bool {
	if stage < 0 || stage >= a.cfg.NumStages {
		return false
	}
	iv, clash := a.pinned[stage].conflict(BlockRange{Lo: block, Hi: block + 1})
	return clash && iv.fid == QuarantineFID
}

// QuarantinedBlocks returns the total quarantined blocks across all stages.
func (a *Allocator) QuarantinedBlocks() int {
	total := 0
	for _, set := range a.pinned {
		for _, iv := range set.ivs {
			if iv.fid == QuarantineFID {
				total += iv.Size()
			}
		}
	}
	return total
}

// Fencing reports one Fence call.
type Fencing struct {
	Fenced    int          // blocks newly fenced
	Evacuated int          // residents displaced from a bad block: re-placed or evicted
	Moved     []*Placement // the final placement of every resident moved, in FID order
	Evicted   []uint16     // residents that could not be re-placed, in FID order
}

// stageBlock is one block of one stage.
type stageBlock struct{ stage, block int }

// Fence fences off every block of bad (per stage; a sweep's corrupted
// blocks) under the reserved owner, one interval per block so healthy blocks
// between bad ones stay usable, and re-places whoever held one. One loop
// decides it, until every bad block is fenced: each bad block no interval
// holds is fenced where it lies, moving nobody; then the lowest-FID resident
// still holding one is evacuated — dropped, the bad blocks it held fenced,
// the freed space re-laid (recomputeFreed) and the resident re-placed
// through Allocate with its constraints, or evicted when it is in recovered
// form or no longer fits. Free bad blocks are fenced before anyone is
// re-placed, so no evacuee lands on a block of the same call, and every
// pass fences at least one block. Fence never refuses.
func (a *Allocator) Fence(bad map[int][]BlockRange) Fencing {
	var pending []stageBlock
	for s, rs := range bad {
		for _, r := range rs {
			for b := r.Lo; b < r.Hi; b++ {
				pending = append(pending, stageBlock{s, b})
			}
		}
	}
	slices.SortFunc(pending, func(x, y stageBlock) int {
		return cmp.Or(cmp.Compare(x.stage, y.stage), cmp.Compare(x.block, y.block))
	})
	pending = slices.Compact(pending)

	var out Fencing
	moved := map[uint16]bool{}
	fence := func(p stageBlock) {
		a.pinned[p.stage].insert(interval{BlockRange: BlockRange{Lo: p.block, Hi: p.block + 1}, fid: QuarantineFID})
		out.Fenced++
	}
	for {
		held := pending[:0]
		for _, p := range pending {
			r := BlockRange{Lo: p.block, Hi: p.block + 1}
			if iv, ok := a.pinned[p.stage].conflict(r); ok {
				if iv.fid != QuarantineFID {
					held = append(held, p)
				}
			} else if _, ok := a.elastic[p.stage].conflict(r); ok {
				held = append(held, p)
			} else {
				fence(p)
			}
		}
		if pending = held; len(pending) == 0 {
			break
		}
		i := slices.IndexFunc(a.apps, func(app *App) bool {
			return slices.ContainsFunc(pending, app.holds)
		})
		app := a.apps[i]
		before := a.snapshotElasticRegions(1)
		a.unpin(app)
		a.drop(app.FID)
		pending = slices.DeleteFunc(pending, func(p stageBlock) bool {
			if app.holds(p) {
				fence(p)
				return true
			}
			return false
		})
		a.recomputeFreed(before)
		out.Evacuated++
		placed := false
		if app.Cons != nil {
			res, err := a.Allocate(app.FID, app.Cons)
			placed = err == nil && !res.Failed
		}
		for _, pl := range a.changedPlacements(before, app.FID) {
			moved[pl.FID] = true
		}
		moved[app.FID] = placed
		if !placed {
			out.Evicted = append(out.Evicted, app.FID)
		}
	}
	for _, app := range a.apps {
		if moved[app.FID] {
			out.Moved = append(out.Moved, a.placementFor(app))
		}
	}
	slices.Sort(out.Evicted)
	return out
}

// holds reports whether the app's region in the block's stage covers it.
func (a *App) holds(p stageBlock) bool {
	r := a.region(p.stage)
	return r.Lo <= p.block && p.block < r.Hi
}
