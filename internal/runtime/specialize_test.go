package runtime

import (
	"testing"

	"activermt/internal/packet"
)

// TestPlanInvalidationOnGrantCommit proves a grant commit (epoch bump +
// region move) evicts the compiled plan itself — not just the decoded
// program — and that a superseded plan table can never execute a stale plan:
// validity is pointer identity against the freshly loaded snapshots, so the
// stale table's hit falls back to the interpreter and the next packet
// recompiles against the just-published view.
func TestPlanInvalidationOnGrantCommit(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload

	outs := r.ExecuteProgram(a)
	if r.SpecializedRuns != 1 {
		t.Fatalf("first capsule: SpecializedRuns = %d, want 1", r.SpecializedRuns)
	}
	if outs[0].Dropped {
		t.Fatal("in-grant query dropped")
	}
	if got := r.PlanCompiles(); got != 1 {
		t.Fatalf("PlanCompiles = %d, want 1", got)
	}
	tab1 := r.planTab.Load()
	if len(tab1.plans) != 1 {
		t.Fatalf("plan table holds %d plans, want 1", len(tab1.plans))
	}

	// Grant commit: the region moves to [1024,2048) and the epoch bumps.
	// publish() must install a fresh empty table keyed to the new snapshots.
	installCacheGrant(t, r, 1, 1024, 2048)
	tab2 := r.planTab.Load()
	if tab2 == tab1 {
		t.Fatal("grant commit did not replace the plan table")
	}
	if len(tab2.plans) != 0 {
		t.Fatalf("fresh plan table holds %d plans, want 0", len(tab2.plans))
	}
	if tab2.cv != r.view() || tab2.pv != r.dev.View() {
		t.Fatal("fresh plan table not keyed to the published snapshots")
	}

	// Executing against the superseded table — put back as a capsule that
	// loaded it just before the commit would hold it — must not use its stale
	// plan: the pointer-identity check fails and the packet interprets (the
	// memo, which still remembers the stale plan, is not consulted either).
	// The stale table itself stays untouched.
	r.planTab.Store(tab1)
	r.ExecuteProgram(a)
	if r.SpecializedRuns != 1 {
		t.Fatal("stale plan table executed a specialized packet")
	}
	if len(tab1.plans) != 1 {
		t.Fatal("stale table mutated after supersession")
	}
	r.planTab.Store(tab2)

	// The next packet recompiles under the new snapshots, and the recompiled
	// plan carries the new bounds: address 100 is outside the moved grant and
	// must fault.
	faults := r.Faults
	outs = r.ExecuteProgram(a)
	if r.SpecializedRuns != 2 {
		t.Fatal("no specialized execution after recompilation")
	}
	if r.PlanCompiles() < 2 {
		t.Fatalf("PlanCompiles = %d, want >= 2", r.PlanCompiles())
	}
	if !outs[0].Dropped || r.Faults != faults+1 {
		t.Fatal("recompiled plan kept the stale grant bounds")
	}
}

// TestPlanInvalidationOnQuarantineAndPrivilege pins the other two commit
// kinds the plan folds state from: a quarantine flip and a privilege change
// must both unreach the current plan table.
func TestPlanInvalidationOnQuarantineAndPrivilege(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload
	r.ExecuteProgram(a)

	tab := r.planTab.Load()
	r.Deactivate(1)
	if r.planTab.Load() == tab {
		t.Fatal("quarantine commit did not replace the plan table")
	}
	r.Reactivate(1)

	tab = r.planTab.Load()
	r.SetPrivilege(1, 0)
	if r.planTab.Load() == tab {
		t.Fatal("privilege commit did not replace the plan table")
	}
}

// TestSpecializationToggle proves SetSpecialization(false) forces the
// interpreter (the benchmark baseline) and that re-enabling resumes plan
// execution without a recompile.
func TestSpecializationToggle(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload

	r.ExecuteProgram(a)
	if r.SpecializedRuns != 1 {
		t.Fatal("specialization not on by default")
	}
	r.SetSpecialization(false)
	r.ExecuteProgram(a)
	if r.SpecializedRuns != 1 {
		t.Fatal("disabled specialization still ran a plan")
	}
	r.SetSpecialization(true)
	compiles := r.PlanCompiles()
	r.ExecuteProgram(a)
	if r.SpecializedRuns != 2 {
		t.Fatal("re-enabled specialization did not run the cached plan")
	}
	if r.PlanCompiles() != compiles {
		t.Fatal("toggle recompiled an unchanged plan")
	}
}
