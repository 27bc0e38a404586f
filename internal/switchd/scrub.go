package switchd

// ScrubFID zeroes every register word inside fid's installed regions, stage
// by stage, through the control plane. This is the reliable counterpart to
// a data-plane wipe capsule: a capsule can be lost on a lossy or flapping
// link and there is no acknowledgment for a sentinel, whereas the control
// channel to a live controller is the same path the allocation protocol
// already trusts for table updates. The fabric's coherent cache uses it to
// scrub a home replica that may hold values newer traffic has overwritten
// elsewhere.
//
// Returns the number of words zeroed and whether the scrub ran at all: a
// crashed controller cannot reach its switch, so callers must keep the
// region marked dirty and retry after Restart.
func (c *Controller) ScrubFID(fid uint16) (int, bool) {
	if !c.alive {
		return 0, false
	}
	words := 0
	dev := c.rt.Device()
	for s, reg := range c.rt.InstalledRegions(fid) {
		if err := dev.Stage(s).Registers.Zero(reg.Lo, reg.Hi); err != nil {
			continue
		}
		words += int(reg.Hi - reg.Lo)
	}
	return words, true
}

// ScrubWord evicts the bucket at addr from fid's installed regions — a
// per-key eviction through the control plane. A bucket spans the access
// stages diagonally: MEM_READ/MEM_WRITE advance MAR, so its i-th word sits at
// addr+i in the i-th access stage (in pipeline order), and word addr of a
// later stage belongs to a neighbouring bucket, which must keep its data. The
// coherent cache uses it when a write's acknowledged commit provably bypassed
// a replica (rerouted around it), so whatever that replica holds for the key
// is unconfirmed: zeroing turns a possible stale hit into a miss the server
// refills. Same liveness contract as ScrubFID.
func (c *Controller) ScrubWord(fid uint16, addr uint32) (int, bool) {
	if !c.alive {
		return 0, false
	}
	words, access := 0, 0
	dev := c.rt.Device()
	for s := 0; s < dev.NumStages(); s++ {
		reg, ok := c.rt.RegionFor(fid, s)
		if !ok {
			continue
		}
		w := addr + uint32(access)
		access++
		if w < reg.Lo || w >= reg.Hi {
			continue
		}
		if err := dev.Stage(s).Registers.Zero(w, w+1); err != nil {
			continue
		}
		words++
	}
	return words, true
}
