package guard

import (
	"fmt"

	"activermt/internal/runtime"
)

// The isolation auditor proves global invariants the per-packet TCAM check
// cannot see: per-packet enforcement shows one access stayed inside one
// region, but only a whole-table walk shows the regions themselves are
// disjoint, owned, and consistent with the translation entries that steer
// addresses into them. switchd.Node.Check runs it, as row P1 of
// docs/invariants.md.

// FindingKind classifies one audit finding.
type FindingKind int

// Audit finding kinds.
const (
	// FindingOverlap: two tenants' regions intersect in one stage — the
	// TCAM would grant both access to the shared words.
	FindingOverlap FindingKind = iota
	// FindingOrphanRegion: a region belongs to a FID that is no longer
	// admitted — leftover state a future tenant could collide with.
	FindingOrphanRegion
	// FindingTranslateEscape: a translation entry steers a FID's
	// addresses outside every region it holds, so in-window arithmetic
	// would land on foreign memory.
	FindingTranslateEscape
)

// String names the finding kind.
func (k FindingKind) String() string {
	switch k {
	case FindingOverlap:
		return "region-overlap"
	case FindingOrphanRegion:
		return "orphan-region"
	case FindingTranslateEscape:
		return "translate-escape"
	}
	return fmt.Sprintf("finding(%d)", int(k))
}

// Finding is one audit violation.
type Finding struct {
	Kind   FindingKind
	Stage  int    // physical stage the evidence sits in
	FID    uint16 // the tenant whose state is at fault
	Other  uint16 // the second tenant, for overlaps
	Detail string
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("stage %d fid %d: %s (%s)", f.Stage, f.FID, f.Kind, f.Detail)
}

// AuditRuntime walks every stage's protection TCAM and translation table and
// returns all isolation invariant violations, in stage order.
func AuditRuntime(rt *runtime.Runtime) []Finding {
	var out []Finding
	dev := rt.Device()
	for s := 0; s < dev.NumStages(); s++ {
		st := dev.Stage(s)
		regs := st.Prot.Regions()
		for i, a := range regs {
			if !rt.Admitted(a.FID) {
				out = append(out, Finding{
					Kind: FindingOrphanRegion, Stage: s, FID: a.FID,
					Detail: fmt.Sprintf("region [%d,%d) owned by unadmitted fid", a.Lo, a.Hi),
				})
			}
			for _, b := range regs[i+1:] {
				if a.FID != b.FID && a.Lo < b.Hi && b.Lo < a.Hi {
					out = append(out, Finding{
						Kind: FindingOverlap, Stage: s, FID: a.FID, Other: b.FID,
						Detail: fmt.Sprintf("[%d,%d) intersects fid %d's [%d,%d)", a.Lo, a.Hi, b.FID, b.Lo, b.Hi),
					})
				}
			}
		}
		for _, tr := range st.TranslateEntries() { // sorted by FID: deterministic finding order
			if translateContained(rt, tr.FID, tr.Offset, tr.Offset+tr.Mask) {
				continue
			}
			out = append(out, Finding{
				Kind: FindingTranslateEscape, Stage: s, FID: tr.FID,
				Detail: fmt.Sprintf("window [%d,%d] outside every region of fid %d", tr.Offset, tr.Offset+tr.Mask, tr.FID),
			})
		}
	}
	return out
}

// translateContained reports whether [lo, hi] sits inside one of fid's
// installed regions in any stage (the access a translate entry targets may
// execute in a later physical stage than the entry itself).
func translateContained(rt *runtime.Runtime, fid uint16, lo, hi uint32) bool {
	for _, reg := range rt.InstalledRegions(fid) {
		if lo >= reg.Lo && hi < reg.Hi {
			return true
		}
	}
	return false
}
