package rmt

import "slices"

// This file implements the data-plane side of the control/data split: an
// immutable, epoch-published snapshot of every table the per-packet path
// reads. On the Tofino the pipeline executes from pre-compiled match-action
// state while the controller mutates tables out-of-band; here the same
// separation is a PipeView swapped atomically on every control-plane commit.
// Packet execution loads the pointer once at pipeline entry, so a packet
// observes one consistent view for its whole traversal and the control plane
// can mutate the builder tables (TCAM, translation entries) freely in parallel.
//
// The builder tables (TCAM, Stage translate entries) stay authoritative for
// the control plane and are edited in place; a view holds copies in the same
// representation — compact slices sorted by FID, read by binary search — so
// publishing a stage is a copy, and RebuildView copies only the tables that
// changed since the previous publication. Views are never mutated after
// publication. The slices are sorted and searched, not indexed by FID: FIDs
// are sparse 16-bit names (the soak admits 1 000-60 004), so a dense index
// would make every publication copy hundreds of kilobytes per stage.

// StageView is the immutable per-stage slice of a PipeView: the protection
// regions (Region, Allowed and Owner read them) and translation entries of
// one physical stage, frozen at publish time.
type StageView struct {
	regionSet
	xlate []TranslateEntry // sorted by FID
}

// Translate returns fid's translation entry in this stage under the view.
func (v *StageView) Translate(fid uint16) (Translate, bool) { return translateOf(v.xlate, fid) }

// Regions returns the view's regions sorted by base address. The slice is
// part of the immutable view: callers must not modify it.
func (v *StageView) Regions() []Region { return v.byLo }

// PipeView is one published snapshot of the full pipeline's protection and
// translation state. It is immutable after publication; readers may share it
// across goroutines without synchronization.
type PipeView struct {
	stages []*StageView
	// Gen is the publication generation, monotonically increasing. Tests
	// and the snapshot-ordering assertions use it to prove which view a
	// packet executed under.
	Gen uint64
}

// StageView returns the view of physical stage i.
func (v *PipeView) StageView(i int) *StageView { return v.stages[i] }

// RebuildView publishes a fresh pipeline view of the current TCAM and
// translation tables: a stage whose tables changed since the last
// publication gets a new StageView holding copies of the changed tables;
// every other stage keeps its previous *StageView. The caller (the runtime's
// commit path) invokes it once per allocation/eviction commit — never per
// packet.
func (d *Device) RebuildView() *PipeView {
	prev := d.view.Load()
	v := &PipeView{stages: make([]*StageView, len(d.stages)), Gen: d.viewGen.Add(1)}
	for i, st := range d.stages {
		sv := prev.stages[i]
		if st.Prot.dirty || st.xdirty {
			next := *sv
			if st.Prot.dirty {
				next.regionSet = regionSet{slices.Clone(st.Prot.set.byFID), slices.Clone(st.Prot.set.byLo)}
			}
			if st.xdirty {
				next.xlate = slices.Clone(st.xlate)
			}
			st.Prot.dirty, st.xdirty = false, false
			sv = &next
		}
		v.stages[i] = sv
	}
	d.view.Store(v)
	return v
}

// View returns the current published pipeline view.
func (d *Device) View() *PipeView { return d.view.Load() }
