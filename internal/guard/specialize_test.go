package guard

import (
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
)

// These tests pin the guard's position relative to the specialization layer:
// CheckProgram authenticates the capsule (grant-epoch echo included) at
// ingress, BEFORE the runtime resolves or compiles any plan — so a capsule
// carrying a stale epoch is dropped without ever reaching a compiled plan,
// and a re-granted tenant's capsules execute against a plan recompiled under
// the new snapshot, never the old one.

// memCapsule builds a capsule whose program reads the tenant's region at
// logical stage 1 (where installGrant places it).
func memCapsule(fid uint16, epoch uint8, addr uint32) *packet.Active {
	a := capsule(fid, epoch,
		isa.Instruction{Op: isa.OpNop}, // stage 0: pad to the granted stage
		isa.Instruction{Op: isa.OpMemRead},
		isa.Instruction{Op: isa.OpReturn})
	a.Args[2] = addr
	a.Header.Flags |= packet.FlagPreload
	return a
}

// TestGuardDropsStaleEpochBeforeSpecializedExecution: after a reallocation
// bumps the tenant's epoch, a capsule echoing the old epoch is refused at
// ingress — the runtime compiles and executes nothing for it.
func TestGuardDropsStaleEpochBeforeSpecializedExecution(t *testing.T) {
	g, rt, _, _ := newTestGuard(t, testPolicy())
	const fid = 5
	installGrant(t, rt, fid, 0, 64)
	oldEpoch := rt.Epoch(fid)

	// Fresh capsule executes and compiles the program's plan.
	a := memCapsule(fid, oldEpoch, 3)
	if !g.CheckProgram(a, 1) {
		t.Fatal("fresh-epoch capsule refused")
	}
	rt.ExecuteProgram(a)
	if rt.SpecializedRuns != 1 {
		t.Fatalf("SpecializedRuns = %d, want 1", rt.SpecializedRuns)
	}
	compiles := rt.PlanCompiles
	if compiles == 0 {
		t.Fatal("no plan compiled for the admitted capsule")
	}

	// Reallocation: epoch bumps, snapshots republish, plans evicted.
	installGrant(t, rt, fid, 64, 128)
	if rt.Epoch(fid) == oldEpoch {
		t.Fatal("reinstall did not bump the epoch")
	}

	// The stale-epoch capsule is refused at ingress: no plan is compiled,
	// no packet executes.
	stale := memCapsule(fid, oldEpoch, 3)
	if g.CheckProgram(stale, 1) {
		t.Fatal("stale-epoch capsule passed the ingress guard")
	}
	if rt.PlanCompiles != compiles {
		t.Fatal("guard-rejected capsule triggered a plan compile")
	}

	// The re-granted capsule (fresh epoch echo) passes and executes against
	// a plan recompiled under the new snapshot: address 3 is outside the
	// moved region [64,128) and must now fault.
	fresh := memCapsule(fid, rt.Epoch(fid), 3)
	if !g.CheckProgram(fresh, 1) {
		t.Fatal("fresh-epoch capsule refused after re-grant")
	}
	outs := rt.ExecuteProgram(fresh)
	if rt.SpecializedRuns != 2 {
		t.Fatal("re-granted capsule did not run specialized")
	}
	if rt.PlanCompiles <= compiles {
		t.Fatal("re-granted capsule did not recompile its plan")
	}
	if rt.Faults != 1 || !outs[0].Dropped {
		t.Fatal("recompiled plan kept the pre-reallocation bounds")
	}

	// And an in-range address under the new grant succeeds specialized.
	ok := memCapsule(fid, rt.Epoch(fid), 70)
	if !g.CheckProgram(ok, 1) {
		t.Fatal("in-range capsule refused")
	}
	if outs = rt.ExecuteProgram(ok); rt.SpecializedRuns != 3 || outs[0].Dropped {
		t.Fatal("in-range capsule failed under the recompiled plan")
	}
}
