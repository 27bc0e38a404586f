package rmt

import (
	"fmt"
	"slices"
)

// prefixSize returns the size of the first entry of [lo, hi)'s range-to-
// prefix expansion: the largest aligned power-of-two block starting at lo.
func prefixSize(lo, hi uint32) uint32 {
	size := lo & -lo
	if size == 0 { // lo == 0
		size = 1 << 31
	}
	for size > hi-lo {
		size >>= 1
	}
	return size
}

// PrefixCount returns the number of ternary (prefix) entries required to
// exactly cover the half-open address range [lo, hi) — the standard
// range-to-prefix expansion cost of installing a range match in TCAM.
func PrefixCount(lo, hi uint32) int {
	n := 0
	for ; lo < hi; lo += prefixSize(lo, hi) {
		n++
	}
	return n
}

// PrefixDiff returns the number of prefix entries that are in exactly one of
// the two regions' expansions: the entries to delete plus the entries to add
// when b replaces a in place (the owner is not compared).
func PrefixDiff(a, b Region) int {
	n := 0
	for a.Lo < a.Hi || b.Lo < b.Hi {
		switch {
		case b.Lo >= b.Hi || (a.Lo < a.Hi && a.Lo < b.Lo):
			a.Lo += prefixSize(a.Lo, a.Hi)
			n++
		case a.Lo >= a.Hi || b.Lo < a.Lo:
			b.Lo += prefixSize(b.Lo, b.Hi)
			n++
		default: // one base: the same entry if the sizes agree
			as, bs := prefixSize(a.Lo, a.Hi), prefixSize(b.Lo, b.Hi)
			if as != bs {
				n += 2
			}
			a.Lo, b.Lo = a.Lo+as, b.Lo+bs
		}
	}
	return n
}

// Region is a protected memory range [Lo, Hi) owned by one FID within a
// stage.
type Region struct {
	FID uint16
	Lo  uint32
	Hi  uint32
}

// Cost returns the TCAM entries the region consumes.
func (r Region) Cost() int { return PrefixCount(r.Lo, r.Hi) }

// regionSet is one stage's protected regions, sorted by FID for the
// per-access protection lookup and kept sorted incrementally. Lookups are
// binary searches over the compact slice: FIDs are sparse 16-bit names (the
// soak admits 1 000-60 004), so a dense index would cost hundreds of
// kilobytes per stage.
type regionSet struct {
	byFID []Region
}

// find returns fid's position in byFID and whether a region is there.
func (s regionSet) find(fid uint16) (int, bool) {
	lo, hi := 0, len(s.byFID)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.byFID[m].FID < fid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.byFID) && s.byFID[lo].FID == fid
}

// Region returns fid's protected region in this stage.
func (s regionSet) Region(fid uint16) (Region, bool) {
	if i, ok := s.find(fid); ok {
		return s.byFID[i], true
	}
	return Region{}, false
}

// Allowed reports whether fid may access addr in this stage.
func (s regionSet) Allowed(fid uint16, addr uint32) bool {
	r, ok := s.Region(fid)
	return ok && addr >= r.Lo && addr < r.Hi
}

// TCAM models one stage's ternary match memory as used by ActiveRMT: one
// protected region per FID, charged at its exact range-to-prefix expansion
// cost against a fixed entry budget. The paper identifies this budget as the
// bottleneck on the number of distinct address ranges a stage can protect.
type TCAM struct {
	capacity int
	used     int
	set      regionSet
	// gen is the device generation (Device.Gen), bumped by Install and
	// Remove, so compiled plans see even an edit made directly on the table.
	gen *uint64
}

// ErrTCAMFull is returned when a region's prefix expansion does not fit.
type ErrTCAMFull struct {
	Need, Free int
}

func (e *ErrTCAMFull) Error() string {
	return fmt.Sprintf("rmt: tcam full: need %d entries, %d free", e.Need, e.Free)
}

// Install adds (or replaces) the protected region for a FID. Replacement is
// atomic with respect to the budget: the old region's entries are freed
// before the new cost is charged.
func (t *TCAM) Install(r Region) error {
	if r.Lo > r.Hi {
		return fmt.Errorf("rmt: inverted region [%d,%d)", r.Lo, r.Hi)
	}
	i, replace := t.set.find(r.FID)
	freed := 0
	if replace {
		freed = t.set.byFID[i].Cost()
	}
	need := r.Cost()
	if t.used-freed+need > t.capacity {
		return &ErrTCAMFull{Need: need, Free: t.capacity - t.used + freed}
	}
	t.Remove(r.FID) // frees the old entries; a no-op when there are none
	t.used += need
	t.set.byFID = slices.Insert(t.set.byFID, i, r)
	*t.gen++
	return nil
}

// Remove frees the region owned by fid; removing an absent fid is a no-op.
// It returns the number of table entries released (for table-update cost
// accounting).
func (t *TCAM) Remove(fid uint16) int {
	i, ok := t.set.find(fid)
	if !ok {
		return 0
	}
	cost := t.set.byFID[i].Cost()
	t.used -= cost
	t.set.byFID = slices.Delete(t.set.byFID, i, i+1)
	*t.gen++
	return cost
}

// Lookup reports whether fid may access address addr in this stage.
func (t *TCAM) Lookup(fid uint16, addr uint32) bool { return t.set.Allowed(fid, addr) }

// Region returns the installed region for fid.
func (t *TCAM) Region(fid uint16) (Region, bool) { return t.set.Region(fid) }

// Regions returns a copy of every installed region, sorted by FID — the
// control-plane table-read path a restarted controller uses to rebuild
// allocation state.
func (t *TCAM) Regions() []Region { return slices.Clone(t.set.byFID) }

// Used returns the consumed prefix entries.
func (t *TCAM) Used() int { return t.used }

// Len returns the number of installed regions.
func (t *TCAM) Len() int { return len(t.set.byFID) }
