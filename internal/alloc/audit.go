package alloc

import "fmt"

// AuditBooks cross-checks the allocator's per-stage interval sets, the
// search index, against the record of every grant, its apps' group ranges:
// in every stage, the blocks held by the pinned and elastic interval sets
// must equal the blocks granted to resident applications in that stage plus
// the quarantine fences. A mismatch means blocks leaked — a freed interval
// survived its app, or a group lost track of an interval. This is the
// allocator invariant the long-soak harness checks after every churn epoch:
// thousands of admit/release/reallocate cycles must never bleed capacity.
func (a *Allocator) AuditBooks() error {
	booked := make([]int, a.cfg.NumStages)
	for _, app := range a.apps {
		for _, g := range app.groups {
			for _, s := range g.stages {
				booked[s] += g.r.Size()
			}
		}
	}
	for s, b := range booked {
		used := a.StageUsed(s)
		quar := 0
		for _, iv := range a.pinned[s].ivs {
			if iv.fid == QuarantineFID {
				quar += iv.Size()
			}
		}
		if used != b+quar {
			return fmt.Errorf("alloc: stage %d books leak: interval sets hold %d blocks, apps book %d plus %d quarantined",
				s, used, b, quar)
		}
	}
	return nil
}
