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
// compiled plans and one through the reference interpreter, which reads the
// live tables per slot. Before each commit every capsule runs once, so the
// plan runtime holds a plan for it; after the commit every capsule runs
// again and the two must agree on fate, outputs, memory and counters, and
// every capsule the plan runtime executes must have been compiled anew. Each
// capsule is one a stale plan would answer differently.
func TestEveryCommitIsSeenByTheNextCapsule(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	cfg.TCAMEntries = 6 // three 1-prefix regions fit a stage; [1,100) does not
	e := newEnginePair(t, cfg)
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
	e.both(install(grant(0, 1024), false))

	query := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0}) // reads word 100
	query.Header.Flags |= packet.FlagPreload
	steer := progPacket(1, isa.MustAssemble("steer", "MBR_LOAD 0\nSET_DST\nRETURN"), [4]uint32{5, 0, 0, 0})
	mirror := progPacket(1, &isa.Program{Name: "mirror", Instrs: []isa.Instruction{{Op: isa.OpFork, Operand: 1}, {Op: isa.OpReturn}}}, [4]uint32{})
	// A nested, mirrored FORK whose clones and primary each bump word 100 of
	// stage 4 and write the count to stage 8: the order of their register
	// effects shows in every output and in memory.
	forkWrite := progPacket(1, isa.MustAssemble("fork-write",
		"MAR_LOAD 2\nFORK 1\nFORK\nNOP\nMEM_INCREMENT\nMBR_STORE 0\nNOP\nNOP\nMEM_WRITE\nRETURN"), [4]uint32{0, 0, 100, 0})
	stateless := progPacket(2, isa.MustAssemble("probe", "RTS\nRETURN"), [4]uint32{})
	capsules := []*packet.Active{query, steer, mirror, forkWrite, stateless}

	run := func(step string, fresh bool) {
		for _, a := range capsules {
			compiles := e.plan.PlanCompiles
			name := fmt.Sprintf("%s, fid %d %s", step, a.Header.FID, a.Program.Name)
			got := e.run(t, name, a)
			if fresh && got[0].Executed && e.plan.PlanCompiles == compiles {
				t.Fatalf("%s: executed under a plan compiled before the commit", name)
			}
		}
		e.check(t)
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
		{"SetMirrorSession", func(r *Runtime) { r.SetMirrorSession(1, 1, 9) }},
		{"SetMirrorSession moves the port", func(r *Runtime) { r.SetMirrorSession(1, 1, 10) }},
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
		e.both(c.commit)
		run(c.name, true)
	}
	if e.plan.ProgramsRun == 0 {
		t.Fatal("nothing executed")
	}
}

// TestRecycledPlansMatchReference: emptying the plan table hands its plans'
// storage to the next compiles, and a recompiled plan must not keep anything
// of the program, FID or tables it last held. Every round commits — the
// grant moves, the mirror port moves — and runs the capsules in a rotated
// order, so plans come back for other programs (FORK ones included) and
// other bounds; each output, every register word and every counter is
// diffed against the reference interpreter, and each plan's image must be
// its decoded program's own slice. Then, on the plan engine alone, a commit
// plus the recompiles it forces allocates nothing.
func TestRecycledPlansMatchReference(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	e := newEnginePair(t, cfg)
	grant := func(fid uint16, lo, hi uint32) Grant {
		return Grant{FID: fid, Accesses: []AccessGrant{{Logical: 1, Lo: lo, Hi: hi}, {Logical: 4, Lo: lo, Hi: hi}, {Logical: 8, Lo: lo, Hi: hi}}}
	}
	install := func(r *Runtime, round int) {
		lo := uint32(round%2) * 1024
		for _, g := range []Grant{grant(1, lo, lo+1024), grant(3, 2048+lo/2, 2560+lo/2)} {
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
		}
		r.SetMirrorSession(1, 1, uint32(5+round%3))
	}
	query := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	query.Header.Flags |= packet.FlagPreload
	capsules := []*packet.Active{
		query,
		progPacket(3, cacheQuery, [4]uint32{7, 9, 2100, 0}),
		progPacket(1, isa.MustAssemble("steer", "MBR_LOAD 0\nSET_DST\nRETURN"), [4]uint32{5, 0, 0, 0}),
		progPacket(1, &isa.Program{Name: "mirror", Instrs: []isa.Instruction{{Op: isa.OpFork, Operand: 1}, {Op: isa.OpReturn}}}, [4]uint32{}),
		progPacket(1, isa.MustAssemble("fork-write",
			"MAR_LOAD 2\nFORK 1\nFORK\nNOP\nMEM_INCREMENT\nMBR_STORE 0\nNOP\nNOP\nMEM_WRITE\nRETURN"), [4]uint32{0, 0, 100, 0}),
		progPacket(3, isa.MustAssemble("fork-write-3",
			"MAR_LOAD 2\nFORK\nNOP\nNOP\nMEM_INCREMENT\nMBR_STORE 0\nNOP\nNOP\nMEM_WRITE\nRETURN"), [4]uint32{0, 0, 2100, 0}),
	}
	const rounds = 24
	for round := range rounds {
		e.both(func(r *Runtime) { install(r, round) })
		for i := range capsules {
			a := capsules[(i+round)%len(capsules)]
			e.run(t, fmt.Sprintf("round %d, fid %d %s", round, a.Header.FID, a.Program.Name), a)
		}
		e.check(t)
	}
	if want := uint64(rounds * len(capsules)); e.plan.PlanCompiles != want {
		t.Fatalf("%d plan compiles over %d rounds, want %d: a commit did not empty the table", e.plan.PlanCompiles, rounds, want)
	}
	// A plan runs the decoded program itself: its image is the program's
	// own slice, not a copy.
	for key, cp := range e.plan.plans.plans {
		if len(cp.instrs) != len(key.prog.Instrs) || &cp.instrs[0] != &key.prog.Instrs[0] {
			t.Fatalf("fid %d %s: the plan's image is a copy of the decoded program", key.fid, key.prog.Name)
		}
	}

	r, round := e.plan, rounds
	compiles := r.PlanCompiles
	n := testing.AllocsPerRun(20, func() {
		install(r, round)
		round++
		for _, a := range capsules {
			r.ExecuteProgram(a)
		}
	})
	if n != 0 || r.PlanCompiles != compiles+21*uint64(len(capsules)) {
		t.Errorf("commit + recompiles: %v allocs, %d compiles, want 0 and %d", n, r.PlanCompiles-compiles, 21*len(capsules))
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

// TestPlanInvalidationOnQuarantine pins the other commit kind the plan folds
// state from: a quarantine flip must leave the plan table stale, so the next
// capsule recompiles.
func TestPlanInvalidationOnQuarantine(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	a.Header.Flags |= packet.FlagPreload
	r.ExecuteProgram(a)
	if planStale(r) {
		t.Fatal("plan table stale before the commit")
	}
	compiles := r.PlanCompiles
	r.Deactivate(1)
	r.Reactivate(1)
	if !planStale(r) {
		t.Fatal("quarantine commit left the plan table current")
	}
	r.ExecuteProgram(a)
	if r.PlanCompiles != compiles+1 {
		t.Fatalf("PlanCompiles = %d after the commit, want %d", r.PlanCompiles, compiles+1)
	}
}

// TestFullPlanTableAllocatesNothing fills the plan table with maxPlans
// distinct programs of one FID, then sends a program it has no room for: the
// compile empties the table into the free list and caches the new plan, so
// that program's later capsules hit it and allocate nothing.
func TestFullPlanTableAllocatesNothing(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	for range maxPlans {
		r.ExecuteProgram(progPacket(1, isa.MustAssemble("ret", "RETURN"), [4]uint32{}))
	}
	if len(r.plans.plans) != maxPlans {
		t.Fatalf("plan table holds %d plans, want it full at %d", len(r.plans.plans), maxPlans)
	}
	a := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	compiles := r.PlanCompiles
	if avg := testing.AllocsPerRun(50, func() { r.ExecuteProgram(a) }); avg != 0 {
		t.Errorf("%v allocs per capsule past a full plan table, want 0", avg)
	}
	if got := r.PlanCompiles - compiles; got != 1 {
		t.Errorf("%d compiles of one program past a full plan table, want 1", got)
	}
}
