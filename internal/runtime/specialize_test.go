package runtime

import (
	"fmt"
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// TestEveryCommitIsSeenByTheNextCapsule pins what the plan generations
// promise: whatever a control-plane commit changes, the next capsule runs
// against it. Two runtimes take the same commits, one executing through
// compiled plans and one through the interpreter. Before each commit every
// capsule runs once, so the specialized runtime holds a plan for it; after
// the commit every capsule runs again and the two must agree on fate and
// outputs, and every capsule the specialized runtime executes must have been
// compiled anew. Each capsule is one a stale plan would answer differently.
func TestEveryCommitIsSeenByTheNextCapsule(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	cfg.TCAMEntries = 6 // three 1-prefix regions fit a stage; [1,100) does not
	var rs, ri *Runtime
	for _, r := range []**Runtime{&rs, &ri} {
		var err error
		if *r, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ri.SetSpecialization(false)
	both := func(fn func(r *Runtime)) { fn(rs); fn(ri) }
	grant := func(lo, hi uint32) Grant {
		return Grant{FID: 1, Accesses: []AccessGrant{{Logical: 1, Lo: lo, Hi: hi}, {Logical: 4, Lo: lo, Hi: hi}, {Logical: 8, Lo: lo, Hi: hi}}}
	}
	install := func(g Grant, wantErr bool) func(r *Runtime) {
		return func(r *Runtime) {
			if _, err := r.InstallGrant(g); (err != nil) != wantErr {
				t.Fatalf("InstallGrant(%v): err %v, want error %v", g, err, wantErr)
			}
		}
	}
	both(install(grant(0, 1024), false))

	query := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0}) // reads word 100
	query.Header.Flags |= packet.FlagPreload
	steer := progPacket(1, isa.MustAssemble("steer", "MBR_LOAD 0\nSET_DST\nRETURN"), [4]uint32{5, 0, 0, 0})
	mirror := progPacket(1, &isa.Program{Name: "mirror", Instrs: []isa.Instruction{{Op: isa.OpFork, Operand: 1}, {Op: isa.OpReturn}}}, [4]uint32{})
	stateless := progPacket(2, isa.MustAssemble("probe", "RTS\nRETURN"), [4]uint32{})
	capsules := []*packet.Active{query, steer, mirror, stateless}

	run := func(step string, fresh bool) {
		for _, a := range capsules {
			compiles := rs.PlanCompiles
			want := ri.ExecuteProgram(a)
			got := rs.ExecuteProgram(a)
			name := fmt.Sprintf("%s, fid %d %s", step, a.Header.FID, a.Program.Name)
			compareOutputs(t, name, want, got)
			if fresh && got[0].Executed && rs.PlanCompiles == compiles {
				t.Fatalf("%s: executed under a plan compiled before the commit", name)
			}
		}
	}
	for _, c := range []struct {
		name   string
		commit func(r *Runtime)
	}{
		{"InstallGrant moves the region off word 100", install(grant(1024, 2048), false)},
		{"InstallGrant moves it back", install(grant(0, 1024), false)},
		{"InstallGrant rolls back a TCAM-full grant", install(Grant{FID: 1, Accesses: []AccessGrant{{Logical: 1, Lo: 0, Hi: 1024}, {Logical: 4, Lo: 1, Hi: 100}}}, true)},
		{"InstallGrant after the rollback", install(grant(0, 1024), false)},
		{"Deactivate", func(r *Runtime) { r.Deactivate(1) }},
		{"Reactivate", func(r *Runtime) { r.Reactivate(1) }},
		{"SetPrivilege drops forwarding", func(r *Runtime) { r.SetPrivilege(1, 0) }},
		{"SetPrivilege restores it", func(r *Runtime) { r.SetPrivilege(1, PrivForwarding) }},
		{"SetMirrorSession", func(r *Runtime) { r.SetMirrorSession(1, 1, 9) }},
		{"ClearMirrorSession", func(r *Runtime) { r.ClearMirrorSession(1, 1) }},
		{"AdmitStateless", func(r *Runtime) { r.AdmitStateless(2) }},
		{"TCAM.Install moves stage 1's region directly", func(r *Runtime) {
			if err := r.Device().Stage(1).Prot.Install(rmt.Region{FID: 1, Lo: 512, Hi: 1024}); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveGrant", func(r *Runtime) { r.RemoveGrant(1) }},
	} {
		run(c.name+" (before)", false)
		both(c.commit)
		run(c.name, true)
	}
	if rs.SpecializedRuns == 0 || ri.SpecializedRuns != 0 {
		t.Fatalf("specialized runs: %d on the plan runtime, %d on the interpreter", rs.SpecializedRuns, ri.SpecializedRuns)
	}
}

// planStale reports whether the next capsule will empty r's plan table: a
// commit or a table edit has happened since its plans were compiled.
func planStale(r *Runtime) bool {
	return r.plans.gen != r.gen || r.plans.devGen != r.dev.Gen()
}

// TestPlanInvalidationOnGrantCommit proves a grant commit (epoch bump +
// region move) evicts the compiled plan itself — not just the decoded
// program: the commit leaves the plan table keyed to superseded generations,
// so the next packet empties it and recompiles against the live tables.
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
	if r.PlanCompiles != 1 {
		t.Fatalf("PlanCompiles = %d, want 1", r.PlanCompiles)
	}
	if len(r.plans.plans) != 1 || planStale(r) {
		t.Fatalf("plan table holds %d plans (stale %v), want 1 current", len(r.plans.plans), planStale(r))
	}

	// Grant commit: the region moves to [1024,2048) and the epoch bumps. The
	// plan compiled under the old grant is still in the table, but keyed to
	// generations that are no longer current.
	gen, devGen := r.gen, r.dev.Gen()
	installCacheGrant(t, r, 1, 1024, 2048)
	if r.gen == gen || r.dev.Gen() == devGen {
		t.Fatalf("grant commit bumped neither generation: runtime %d → %d, device %d → %d", gen, r.gen, devGen, r.dev.Gen())
	}
	if !planStale(r) {
		t.Fatal("grant commit left the plan table current")
	}

	// The next packet recompiles under the new generations, and the
	// recompiled plan carries the new bounds: address 100 is outside the
	// moved grant and must fault.
	faults := r.Faults
	outs = r.ExecuteProgram(a)
	if r.SpecializedRuns != 2 {
		t.Fatal("no specialized execution after recompilation")
	}
	if r.PlanCompiles != 2 {
		t.Fatalf("PlanCompiles = %d, want 2", r.PlanCompiles)
	}
	if len(r.plans.plans) != 1 || planStale(r) {
		t.Fatalf("plan table holds %d plans (stale %v) after recompiling, want 1 current", len(r.plans.plans), planStale(r))
	}
	if !outs[0].Dropped || r.Faults != faults+1 {
		t.Fatal("recompiled plan kept the stale grant bounds")
	}
}

// TestPlanInvalidationOnQuarantineAndPrivilege pins the other two commit
// kinds the plan folds state from: a quarantine flip and a privilege change
// must both leave the plan table stale, so the next capsule recompiles.
func TestPlanInvalidationOnQuarantineAndPrivilege(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload
	r.ExecuteProgram(a)

	for _, c := range []struct {
		name   string
		commit func()
	}{
		{"quarantine", func() { r.Deactivate(1); r.Reactivate(1) }},
		{"privilege", func() { r.SetPrivilege(1, 0) }},
	} {
		if planStale(r) {
			t.Fatalf("%s: plan table stale before the commit", c.name)
		}
		compiles := r.PlanCompiles
		c.commit()
		if !planStale(r) {
			t.Fatalf("%s commit left the plan table current", c.name)
		}
		r.ExecuteProgram(a)
		if r.PlanCompiles != compiles+1 {
			t.Fatalf("%s: PlanCompiles = %d after the commit, want %d", c.name, r.PlanCompiles, compiles+1)
		}
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
	compiles := r.PlanCompiles
	r.ExecuteProgram(a)
	if r.SpecializedRuns != 2 {
		t.Fatal("re-enabled specialization did not run the cached plan")
	}
	if r.PlanCompiles != compiles {
		t.Fatal("toggle recompiled an unchanged plan")
	}
}
