package alloc

import "sort"

// BlockRange is a half-open range of block indices within one stage's pool.
type BlockRange struct {
	Lo, Hi int
}

// Size returns the range length in blocks.
func (r BlockRange) Size() int { return r.Hi - r.Lo }

// overlaps reports whether two ranges intersect.
func (r BlockRange) overlaps(o BlockRange) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

// interval is an owned range within a stage pool.
type interval struct {
	BlockRange
	fid uint16
}

// intervalSet is the per-stage bookkeeping of owned ranges, kept sorted by
// Lo.
type intervalSet struct {
	ivs []interval
}

func (s *intervalSet) insert(iv interval) {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Lo >= iv.Lo })
	s.ivs = append(s.ivs, interval{})
	copy(s.ivs[i+1:], s.ivs[i:])
	s.ivs[i] = iv
}

// removeOwner deletes all intervals owned by fid and returns how many were
// removed.
func (s *intervalSet) removeOwner(fid uint16) int {
	out := s.ivs[:0]
	removed := 0
	for _, iv := range s.ivs {
		if iv.fid == fid {
			removed++
			continue
		}
		out = append(out, iv)
	}
	s.ivs = out
	return removed
}

// used returns the total blocks covered.
func (s *intervalSet) used() int {
	total := 0
	for _, iv := range s.ivs {
		total += iv.Size()
	}
	return total
}

// conflict returns the first interval overlapping r, if any. Intervals
// within a set are disjoint and sorted by Lo (so also by Hi), which admits a
// binary search: the only candidate is the first interval whose Hi exceeds
// r.Lo.
func (s *intervalSet) conflict(r BlockRange) (interval, bool) {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > r.Lo })
	if i < len(s.ivs) && s.ivs[i].Lo < r.Hi {
		return s.ivs[i], true
	}
	return interval{}, false
}

// room returns the free blocks directly below and above r, which may itself
// be in the set, counting nothing at or beyond limit.
func (s *intervalSet) room(r BlockRange, limit int) (below, above int) {
	below = r.Lo
	if i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > r.Lo }); i > 0 {
		below -= s.ivs[i-1].Hi
	}
	if j := sort.Search(len(s.ivs), func(j int) bool { return s.ivs[j].Lo >= r.Hi }); j < len(s.ivs) {
		limit = min(limit, s.ivs[j].Lo)
	}
	return below, max(limit-r.Hi, 0)
}

// lowestCommonOffset finds the smallest offset x such that [x, x+size) is
// free in every one of the given interval sets and x+size <= limit. The
// second result is false when no such offset exists.
func lowestCommonOffset(sets []*intervalSet, size, limit int) (int, bool) {
	if size <= 0 || size > limit {
		return 0, false
	}
	x := 0
	for x+size <= limit {
		moved := false
		for _, s := range sets {
			if iv, ok := s.conflict(BlockRange{Lo: x, Hi: x + size}); ok {
				if iv.Hi > x {
					x = iv.Hi
					moved = true
				}
			}
		}
		if !moved {
			return x, true
		}
	}
	return 0, false
}
