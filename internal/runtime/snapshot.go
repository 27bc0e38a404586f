package runtime

import "slices"

// This file implements the control side of the control/data split: every
// piece of admission state the packet path consults — admitted FIDs,
// quarantine and revocation marks, grant epochs, privilege masks, mirror
// sessions — is collected into one immutable ctrlView and republished via
// atomic.Pointer on every control-plane commit. The hot path (and the
// ingress guard) reads the published view; the rows on Runtime stay
// authoritative for the control plane only.
//
// Together with rmt.PipeView (protection + translation) this forms the
// epoch-published pipeline snapshot: a controller commit is "visible" to
// packets exactly when publish() swaps the pointers, never halfway through
// a multi-table update.

// fidRow is everything the admission gate knows about one FID. Rows live in
// one slice sorted by fid — edited in place on Runtime, copied into each
// published ctrlView, found by binary search — and are never deleted: the
// epoch must survive RemoveGrant so a re-admitted FID continues the
// sequence rather than reissuing epochs an attacker may have observed.
type fidRow struct {
	fid         uint16
	admitted    bool
	quarantined bool // execution suspended for a reallocation
	revoked     bool // grant removed: packets hard-drop instead of passing through
	// epoch is bumped on every grant install so capsules stamped against
	// an older grant are detectably stale (0: never granted).
	epoch uint8
	// privilege applies once privSet; FIDs without an explicit assignment
	// are fully privileged.
	privSet   bool
	privilege uint8
}

// findRow returns fid's position in rows and whether a row is there.
func findRow(rows []fidRow, fid uint16) (int, bool) {
	lo, hi := 0, len(rows)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rows[m].fid < fid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rows) && rows[lo].fid == fid
}

// ctrlView is one immutable published snapshot of the runtime's admission
// state: a copy of the rows, and the mirror-session map (replaced, never
// edited, by its two mutators, so views share it by pointer).
type ctrlView struct {
	rows   []fidRow
	mirror map[uint32]uint32
	gen    uint64
}

// row returns fid's row under the view; a FID never seen has the zero row.
func (v *ctrlView) row(fid uint16) fidRow {
	if i, ok := findRow(v.rows, fid); ok {
		return v.rows[i]
	}
	return fidRow{}
}

var emptyCtrlView = &ctrlView{}

// view returns the current published control snapshot (never nil).
func (r *Runtime) view() *ctrlView {
	if v := r.snap.Load(); v != nil {
		return v
	}
	return emptyCtrlView
}

// publish copies the rows into a fresh control snapshot and swaps it in.
// Every mutator of admission state must call it (once, after the full
// mutation) so packets — and the telemetry gauges computed from the view —
// never observe a half-applied commit.
func (r *Runtime) publish() {
	r.snapGen++
	v := &ctrlView{rows: slices.Clone(r.rows), mirror: r.mirror, gen: r.snapGen}
	r.snap.Store(v)
	// Invalidate every compiled plan wholesale: plans fold admission,
	// privilege, protection, and translation state from the snapshot pair
	// they were built against, and this commit may have changed any of it.
	// The fresh table is keyed to the new pair, so packets recompile (once
	// per program version) against the state just published.
	r.resetPlans(v)
}
