package baseline

import (
	"fmt"
	"math/bits"
)

// NetVRMAllocator models NetVRM's register-memory virtualization (Section
// 2.3) closely enough for a utilization comparison with ActiveRMT's
// allocator:
//
//   - page sizes are powers of two drawn from a fixed set chosen at compile
//     time ("page sizes are selected from a fixed set of values determined
//     at compile time");
//   - allocations are uniform across the pipeline — memory cannot be
//     assigned on a per-stage basis ("coarse-grained allocations of
//     stages"), so an app occupying k blocks occupies them in EVERY stage
//     it touches at the same virtual page;
//   - virtual address translation halves the usable per-stage resources
//     ("less than half of the match-action stage resources are available").
//
// A buddy allocator over the (halved) per-stage pool captures all three.
type NetVRMAllocator struct {
	blocks  int           // usable blocks per stage (already halved)
	maxPage int           // largest page (power of two)
	free    map[int][]int // page size -> list of offsets
	apps    map[uint16]netvrmApp
}

type netvrmApp struct {
	offset, size int
}

// NewNetVRM builds the model allocator for a switch with rawBlocks blocks
// per stage before virtualization overhead.
func NewNetVRM(rawBlocks int) *NetVRMAllocator {
	usable := rawBlocks / 2 // translation overhead
	maxPage := 1 << (bits.Len(uint(usable)) - 1)
	a := &NetVRMAllocator{
		blocks:  usable,
		maxPage: maxPage,
		free:    map[int][]int{maxPage: {0}},
		apps:    map[uint16]netvrmApp{},
	}
	return a
}

// roundUp returns the smallest power of two >= n.
func roundUp(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Alloc grants a power-of-two page covering demand blocks; elastic demands
// (0) receive the smallest page. It returns the page offset.
func (a *NetVRMAllocator) Alloc(fid uint16, demand int) (int, error) {
	if _, dup := a.apps[fid]; dup {
		return 0, fmt.Errorf("netvrm: fid %d already allocated", fid)
	}
	if demand < 1 {
		demand = 1
	}
	size := roundUp(demand)
	if size > a.maxPage {
		return 0, fmt.Errorf("netvrm: demand %d exceeds max page %d", demand, a.maxPage)
	}
	// Find the smallest free page >= size, splitting buddies downward.
	s := size
	for s <= a.maxPage && len(a.free[s]) == 0 {
		s <<= 1
	}
	if s > a.maxPage {
		return 0, fmt.Errorf("netvrm: out of pages for size %d", size)
	}
	off := a.free[s][len(a.free[s])-1]
	a.free[s] = a.free[s][:len(a.free[s])-1]
	for s > size {
		s >>= 1
		a.free[s] = append(a.free[s], off+s) // keep the low half, free the buddy
	}
	a.apps[fid] = netvrmApp{offset: off, size: size}
	return off, nil
}

// Release frees a page, coalescing buddies.
func (a *NetVRMAllocator) Release(fid uint16) error {
	app, ok := a.apps[fid]
	if !ok {
		return fmt.Errorf("netvrm: fid %d not allocated", fid)
	}
	delete(a.apps, fid)
	off, size := app.offset, app.size
	for size < a.maxPage {
		buddy := off ^ size
		found := -1
		for i, f := range a.free[size] {
			if f == buddy {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		a.free[size] = append(a.free[size][:found], a.free[size][found+1:]...)
		if buddy < off {
			off = buddy
		}
		size <<= 1
	}
	a.free[size] = append(a.free[size], off)
	return nil
}

// UsedBlocks returns blocks consumed by pages (internal fragmentation
// included: pages are rounded up).
func (a *NetVRMAllocator) UsedBlocks() int {
	t := 0
	for _, app := range a.apps {
		t += app.size
	}
	return t
}

// Utilization relates granted pages to the RAW stage pool, charging the
// virtualization overhead as lost capacity (the comparison the paper's
// Section 5 makes).
func (a *NetVRMAllocator) Utilization(rawBlocks int) float64 {
	return float64(a.UsedBlocks()) / float64(rawBlocks)
}
