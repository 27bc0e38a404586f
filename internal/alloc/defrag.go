package alloc

import (
	"cmp"
	"slices"
)

// Online-defragmentation support: compaction re-places an inelastic app's
// alignment groups at the lowest feasible offsets, sliding them down into
// holes left by departed neighbors. Elastic apps never need compaction —
// every mutation resizes them, and re-lays them when they stand in the way —
// so the candidates are exactly the pinned tenants whose positions the books
// otherwise never revisit.

// Fragmentation computes the activermt_alloc_fragmentation gauge value
// directly from the books: the fraction of free blocks outside each
// stage's largest free hole. Zero when the pipeline is empty or every
// stage's free space is one contiguous hole.
func (a *Allocator) Fragmentation() float64 {
	totalFree, largestHoles := 0, 0
	for s := 0; s < a.cfg.NumStages; s++ {
		free, largest := stageHoles(a.pinned[s], a.elastic[s], a.blocks)
		totalFree += free
		largestHoles += largest
	}
	if totalFree == 0 {
		return 0
	}
	return 1 - float64(largestHoles)/float64(totalFree)
}

// stageHoles returns the free blocks of one stage and the size of its
// largest contiguous free hole, walking the pinned and elastic interval sets
// (each sorted by Lo) merged.
func stageHoles(pinned, elastic *intervalSet, blocks int) (free, largest int) {
	p, e := pinned.ivs, elastic.ivs
	at := 0
	hole := func(upTo int) {
		if upTo > at {
			free += upTo - at
			largest = max(largest, upTo-at)
		}
	}
	for len(p) > 0 || len(e) > 0 {
		var r BlockRange
		if len(e) == 0 || len(p) > 0 && p[0].Lo < e[0].Lo {
			r, p = p[0].BlockRange, p[1:]
		} else {
			r, e = e[0].BlockRange, e[1:]
		}
		hole(r.Lo)
		at = max(at, r.Hi)
	}
	hole(blocks)
	return free, largest
}

// groupMove is one planned group relocation.
type groupMove struct {
	gi       int // index into app.groups
	from, to BlockRange
}

// compactPlan simulates compacting app and returns the per-group moves and
// the gain (block·stages slid downward). The app's groups hold distinct
// stages, so each group's lowest offset is found with the app unpinned and
// the others where they are; the app is pinned back before returning. ok is
// false when any group would land at or above its current offset
// (compaction must only ever move state down).
func (a *Allocator) compactPlan(app *App) (moves []groupMove, gain int, ok bool) {
	a.unpin(app)
	defer func() {
		for gi := range app.groups {
			a.pin(app.FID, &app.groups[gi])
		}
	}()
	for gi := range app.groups {
		g := &app.groups[gi]
		off, found := lowestCommonOffset(a.sets(g, false), g.demand, a.blocks)
		if !found || off > g.r.Lo {
			return nil, 0, false
		}
		gain += (g.r.Lo - off) * len(g.stages)
		moves = append(moves, groupMove{gi: gi, from: g.r, to: BlockRange{Lo: off, Hi: off + g.demand}})
	}
	return moves, gain, gain > 0
}

// CompactionCandidates returns the FIDs of inelastic resident apps that a
// compaction would move strictly downward, best gain first (ties by FID).
// eligible filters out pinned-in-place tenants (e.g. fabric replica
// members); nil means everything is eligible.
func (a *Allocator) CompactionCandidates(eligible func(uint16) bool) []uint16 {
	type cand struct {
		fid  uint16
		gain int
	}
	var cands []cand
	for _, app := range a.apps {
		if app.Elastic || app.Cons == nil || len(app.groups) == 0 {
			continue
		}
		if eligible != nil && !eligible(app.FID) {
			continue
		}
		if _, gain, ok := a.compactPlan(app); ok {
			cands = append(cands, cand{fid: app.FID, gain: gain})
		}
	}
	slices.SortFunc(cands, func(x, y cand) int {
		return cmp.Or(cmp.Compare(y.gain, x.gain), cmp.Compare(x.fid, y.fid))
	})
	out := make([]uint16, len(cands))
	for i, c := range cands {
		out[i] = c.fid
	}
	return out
}

// CompactResult reports one committed compaction.
type CompactResult struct {
	Placement   *Placement   // the victim's new placement
	Reallocated []*Placement // elastic neighbors moved by the re-waterfill
	BlocksMoved int          // block·stages slid to lower offsets
}

// CompactApp re-places fid's groups at the lowest feasible offsets. It
// commits only a strict improvement (every group at or below its current
// offset, at least one strictly below, no elastic neighbor left without a
// block); otherwise the books are untouched and ok is false. The caller owns
// the data-plane half of the migration: snapshotting the old regions and
// restoring into the new ones around the reallocation protocol.
func (a *Allocator) CompactApp(fid uint16) (res *CompactResult, ok bool) {
	app, resident := a.App(fid)
	if !resident || app.Elastic || app.Cons == nil || len(app.groups) == 0 {
		return nil, false
	}
	moves, _, ok := a.compactPlan(app)
	if !ok {
		return nil, false
	}
	before := a.snapshotElasticRegions(0)

	// place puts the app's groups at the planned offsets, or back.
	place := func(planned bool) {
		a.unpin(app)
		for _, mv := range moves {
			g := &app.groups[mv.gi]
			g.r = mv.from
			if planned {
				g.r = mv.to
			}
			a.pin(fid, g)
		}
	}
	place(true)
	if !a.recomputeElastic() {
		// Sliding down squeezed an elastic neighbor out: no improvement.
		place(false)
		a.restoreElastic(before)
		return nil, false
	}
	blocksMoved := 0
	for _, mv := range moves {
		if mv.to.Lo < mv.from.Lo {
			blocksMoved += mv.to.Size() * len(app.groups[mv.gi].stages)
		}
	}
	return &CompactResult{
		Placement:   a.placementFor(app),
		Reallocated: a.changedPlacements(before, fid),
		BlocksMoved: blocksMoved,
	}, true
}
