package switchd

// Online defragmentation: live migration of a tenant's blocks to lower
// offsets using the paper's memsync snapshot->restore protocol. A defrag
// pass is an ordinary serialized control-plane job:
//
//	snapshot victim state -> compact the books -> deactivate + realloc
//	notice -> snapshot window -> InstallGrant (zeroes) -> RestoreRegion
//	-> reactivate + acks
//
// Only the restore step is new; everything from "deactivate" on is the
// standard reallocation protocol, so clients observe a defrag migration
// exactly as they observe any neighbor-driven reallocation (new grants, a
// bumped epoch) — never a torn or stale region.

// PinPlacement excludes fid from defragmentation migration. Fabric replica
// sets pin their members: a replica's placement must stay bit-identical on
// every member device, and a local migration would skew it.
func (c *Controller) PinPlacement(fid uint16) { c.noMigrate[fid] = true }

// UnpinPlacement lifts a migration pin (e.g. after a replica set is torn
// down).
func (c *Controller) UnpinPlacement(fid uint16) { delete(c.noMigrate, fid) }

// Pinned reports whether fid is pinned against defragmentation migration.
func (c *Controller) Pinned(fid uint16) bool { return c.noMigrate[fid] }

// defragMoves bounds the tenants one defrag pass migrates, so one pass
// cannot monopolize the control plane.
const defragMoves = 4

// Defragment queues one defragmentation pass, serialized with admissions like
// every other allocation job, when the allocator has a tenant it could move
// now. The fragmentation gauge is no guide: quarantine fences raise it with
// nothing to move. Safe to call as often as the caller likes.
func (c *Controller) Defragment() {
	if c.alive && len(c.compactionCandidates()) > 0 {
		c.enqueue(c.newJob(JobDefrag, 0))
	}
}

// compactionCandidates are the tenants a pass could move, pinned ones
// excluded.
func (c *Controller) compactionCandidates() []uint16 {
	return c.al.CompactionCandidates(func(fid uint16) bool { return !c.noMigrate[fid] })
}

// defrag runs one pass's allocator work, handing j the placements it moved
// and the register images to restore; it reports false when nobody moved. A
// pass queued behind another job can find the books already compact: it
// counts only when it moves someone.
func (c *Controller) defrag(j *job) bool {
	affected := map[uint16]bool{}
	j.images = map[uint16]map[int][]uint32{}
	for _, fid := range c.compactionCandidates() {
		if len(j.images) >= defragMoves {
			break
		}
		// Capture the victim's live register image region by region before
		// the books move. The runtime install is untouched until the install
		// phase, so this reads the authoritative pre-migration state (the
		// same state-extraction path FlagMemSync capsules use).
		save := map[int][]uint32{}
		for stage := range c.rt.InstalledRegions(fid) {
			if words, _, err := c.rt.Snapshot(fid, stage); err == nil {
				save[stage] = words
			}
		}
		res, ok := c.al.CompactApp(fid)
		if !ok {
			continue
		}
		c.DefragMigrations++
		c.DefragBlocksMoved += uint64(res.BlocksMoved)
		j.images[fid] = save
		affected[fid] = true
		for _, pl := range res.Reallocated {
			affected[pl.FID] = true
		}
	}
	if len(j.images) == 0 {
		return false
	}
	c.DefragPasses++
	j.moved = c.placementsOf(affected)
	return true
}
