package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/secapps"
)

// Differential testing: the reference interpreter (reference_test.go)
// executes the same capsules as the compiled plan, and outputs, memory and
// counters must match bit for bit. This pins the stage-sequential execution
// model — branch skipping across stages, per-stage hash seeding, folded
// protection and translation, FORK order — against an oracle that reads the
// live tables per slot.

// safeOps are the opcodes the generator draws from: everything except
// memory access, forwarding, EOF, and translation (those need switch
// state).
var safeOps = []isa.Opcode{
	isa.OpNop, isa.OpMbrLoad, isa.OpMbrStore, isa.OpMbr2Load, isa.OpMarLoad,
	isa.OpCopyMbr2Mbr, isa.OpCopyMbrMbr2, isa.OpCopyMarMbr, isa.OpCopyMbrMar,
	isa.OpCopyHashdataMbr, isa.OpCopyHashdataMbr2,
	isa.OpMbrAddMbr2, isa.OpMarAddMbr, isa.OpMarAddMbr2, isa.OpMarMbrAddMbr2,
	isa.OpMbrSubMbr2, isa.OpBitAndMarMbr, isa.OpBitOrMbrMbr2,
	isa.OpMbrEqualsMbr2, isa.OpMbrEqualsData,
	isa.OpMax, isa.OpMin, isa.OpRevMin, isa.OpSwapMbrMbr2, isa.OpMbrNot,
	isa.OpCRet, isa.OpCRetI, isa.OpHash,
}

// genProgram builds a random valid program, occasionally with forward
// branches.
func genProgram(rng *rand.Rand) *isa.Program {
	n := 3 + rng.Intn(35)
	p := &isa.Program{Name: "fuzz"}
	for i := 0; i < n; i++ {
		in := isa.Instruction{Op: safeOps[rng.Intn(len(safeOps))]}
		if in.Op.HasOperand() {
			in.Operand = uint8(rng.Intn(4))
		}
		p.Instrs = append(p.Instrs, in)
	}
	// Sprinkle up to two forward branches with labels.
	label := uint8(1)
	for b := 0; b < 2 && label <= isa.MaxLabel; b++ {
		src := rng.Intn(len(p.Instrs))
		tgt := src + 1 + rng.Intn(len(p.Instrs)-src)
		if tgt >= len(p.Instrs) {
			continue
		}
		if p.Instrs[tgt].Label != 0 || p.Instrs[src].Op.IsBranch() {
			continue
		}
		branchOps := []isa.Opcode{isa.OpCJump, isa.OpCJumpI, isa.OpUJump}
		p.Instrs[src] = isa.Instruction{Op: branchOps[rng.Intn(3)], Operand: label}
		p.Instrs[tgt].Label = label
		label++
	}
	if err := p.Validate(); err != nil {
		// Regenerate on the rare invalid combination.
		return genProgram(rng)
	}
	return p
}

func TestDifferentialInterpreter(t *testing.T) {
	e := newEnginePair(t, testConfig())
	e.both(func(r *Runtime) { r.AdmitStateless(1) })
	rng := rand.New(rand.NewSource(20230910))

	for trial := 0; trial < 3000; trial++ {
		p := genProgram(rng)
		args := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		a := progPacket(1, p, args)
		a.Header.Flags |= packet.FlagNoShrink
		if outs := e.run(t, fmt.Sprintf("trial %d", trial), a); len(outs) != 1 {
			t.Fatalf("trial %d: %d outputs", trial, len(outs))
		}
	}
	e.check(t)
}

// specOps extends safeOps with the switch-state opcodes the plan compiler
// folds at compile time: memory accesses, translation, and forwarding —
// the surface where a folding bug would diverge from the interpreter.
var specOps = append(append([]isa.Opcode{}, safeOps...),
	isa.OpMemRead, isa.OpMemWrite, isa.OpMemIncrement, isa.OpMemMinRead, isa.OpMemMinReadInc,
	isa.OpAddrMask, isa.OpAddrOffset,
	isa.OpRts, isa.OpCRts, isa.OpSetDst, isa.OpDrop, isa.OpReturn,
)

// genSpecProgram builds a random valid program over the full instruction
// surface, with occasional FORKs (plan FORK: clones run at the fork point,
// FORK 1 under a mirror session when one is set) and forward branches.
func genSpecProgram(rng *rand.Rand) *isa.Program {
	n := 3 + rng.Intn(30)
	p := &isa.Program{Name: "spec-fuzz"}
	for i := 0; i < n; i++ {
		op := specOps[rng.Intn(len(specOps))]
		if rng.Intn(40) == 0 {
			op = isa.OpFork
		}
		in := isa.Instruction{Op: op}
		if in.Op.HasOperand() {
			in.Operand = uint8(rng.Intn(6))
		}
		p.Instrs = append(p.Instrs, in)
	}
	label := uint8(1)
	for b := 0; b < 2 && label <= isa.MaxLabel; b++ {
		src := rng.Intn(len(p.Instrs))
		tgt := src + 1 + rng.Intn(len(p.Instrs)-src)
		if tgt >= len(p.Instrs) {
			continue
		}
		if p.Instrs[tgt].Label != 0 || p.Instrs[src].Op.IsBranch() {
			continue
		}
		branchOps := []isa.Opcode{isa.OpCJump, isa.OpCJumpI, isa.OpUJump}
		p.Instrs[src] = isa.Instruction{Op: branchOps[rng.Intn(3)], Operand: label}
		p.Instrs[tgt].Label = label
		label++
	}
	if err := p.Validate(); err != nil {
		return genSpecProgram(rng)
	}
	return p
}

// forkCapsules are FORK shapes the random stream draws rarely, run against
// fid with args: nested clones, a FORK followed by register writes at
// args[2] in stages 4 and 8 (the clone's effects must land first), and a
// mirrored FORK.
func forkCapsules(fid uint16, args [4]uint32) []*packet.Active {
	progs := []*isa.Program{
		isa.MustAssemble("nested-fork", "FORK\nFORK 1\nFORK\nMBR_NOT\nMBR_STORE 0\nRETURN"),
		isa.MustAssemble("fork-write", "MAR_LOAD 2\nFORK\nMBR_LOAD 1\nNOP\nMEM_INCREMENT\nMBR_STORE 0\nNOP\nNOP\nMEM_WRITE\nRTS\nRETURN"),
		isa.MustAssemble("mirror-fork", "MBR_LOAD 0\nFORK 1\nSET_DST\nRETURN"),
	}
	var as []*packet.Active
	for _, p := range progs {
		as = append(as, progPacket(fid, p, args))
	}
	return as
}

// TestDifferentialSpecializedVsInterpreter drives two identical runtimes —
// one executing through compiled plans, one through the reference
// interpreter — through the same random stream of programs, grant
// reinstalls (epoch bumps, moved regions), quarantine flips, mirror sessions
// set and cleared, revocations, and unadmitted FIDs, and requires
// bit-identical wire outputs, memory and counters. Each capsule runs twice so
// both the compile-inline and the cached-plan entries are exercised.
func TestDifferentialSpecializedVsInterpreter(t *testing.T) {
	e := newEnginePair(t, testConfig())
	rng := rand.New(rand.NewSource(0xA11CE))

	base := map[uint16]uint32{} // each FID's region base, for FORK capsules that hit it
	grant := func(fid uint16, lo, hi uint32) {
		base[fid] = lo
		e.both(func(r *Runtime) {
			g := Grant{FID: fid}
			for l := 0; l < 10; l++ {
				g.Accesses = append(g.Accesses, AccessGrant{Logical: l, Lo: lo, Hi: hi})
			}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
		})
	}
	grant(1, 0, 512)
	grant(2, 512, 1024)
	grant(3, 1024, 1536)

	for trial := 0; trial < 2000; trial++ {
		// Occasionally commit control-plane changes, identically on both:
		// each one invalidates the plan runtime's plans.
		fid := uint16(1 + rng.Intn(3))
		switch rng.Intn(20) {
		case 0: // epoch bump + region move
			base := uint32(rng.Intn(6)) * 512
			grant(fid, base, base+512)
		case 1: // quarantine flip
			q := e.ref.Quarantined(fid)
			e.both(func(r *Runtime) {
				if q {
					r.Reactivate(fid)
				} else {
					r.Deactivate(fid)
				}
			})
		case 2: // revocation (a later grant() re-admits)
			e.both(func(r *Runtime) { r.RemoveGrant(fid) })
		case 3: // mirror session 1 set or cleared
			if _, ok := e.ref.MirrorSession(fid, 1); ok {
				e.both(func(r *Runtime) { r.ClearMirrorSession(fid, 1) })
			} else {
				port := rng.Uint32()
				e.both(func(r *Runtime) { r.SetMirrorSession(fid, 1, port) })
			}
		}

		fid = uint16(1 + rng.Intn(4)) // FID 4 is never admitted: passthrough
		args := [4]uint32{rng.Uint32(), rng.Uint32(), uint32(rng.Intn(2048)), rng.Uint32()}
		capsules := []*packet.Active{progPacket(fid, genSpecProgram(rng), args)}
		if trial%5 == 0 {
			fargs := args
			fargs[2] = base[fid] + uint32(rng.Intn(512))
			capsules = append(capsules, forkCapsules(fid, fargs)...)
		}
		var flags uint16
		if rng.Intn(2) == 0 {
			flags |= packet.FlagPreload
		}
		if rng.Intn(3) == 0 {
			flags |= packet.FlagNoShrink
		}
		for _, a := range capsules {
			a.Header.Flags |= flags
			for rep := 0; rep < 2; rep++ {
				e.run(t, fmt.Sprintf("trial %d %s rep %d", trial, a.Program.Name, rep), a)
			}
		}
	}
	if e.plan.ProgramsRun == 0 || e.plan.Device().Recirculations == 0 {
		t.Fatal("stream too tame: nothing executed or nothing forked")
	}
	e.check(t)
}

// TestDifferentialRegisteredApps pins every registered exemplar program —
// the apps package and the secapps security/measurement suite — to
// bit-identical interpreter vs. specialized execution. The random fuzzers
// above explore the instruction space; this suite guarantees the programs
// we actually ship (including the multi-pass claim arm and the DROP-bearing
// rate limiter) never diverge between the two paths.
func TestDifferentialRegisteredApps(t *testing.T) {
	e := newEnginePair(t, testConfig())
	rng := rand.New(rand.NewSource(0x5ECA))

	progs := append(apps.Programs(), secapps.Programs()...)
	if len(progs) < 12 {
		t.Fatalf("registered programs = %d, registry looks truncated", len(progs))
	}
	for pi, tmpl := range progs {
		fid := uint16(100 + pi)
		acc := tmpl.MemoryAccessIndices()
		lo := uint32((pi % 8) * 512)
		e.both(func(r *Runtime) {
			if len(acc) == 0 {
				r.AdmitStateless(fid)
				return
			}
			cons, err := compiler.Extract(tmpl, false, nil)
			if err != nil {
				t.Fatalf("%s: %v", tmpl.Name, err)
			}
			pl := &alloc.Placement{FID: fid, Mutant: acc}
			for _, idx := range acc {
				pl.Accesses = append(pl.Accesses, alloc.AccessPlacement{Logical: idx, Range: alloc.WordRange{Lo: lo, Hi: lo + 512}})
			}
			var g Grant
			g.Set(pl, cons)
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatalf("%s: grant: %v", tmpl.Name, err)
			}
		})
		for trial := 0; trial < 200; trial++ {
			args := [4]uint32{rng.Uint32(), rng.Uint32(), lo + uint32(rng.Intn(600)), rng.Uint32()}
			a := progPacket(fid, tmpl, args)
			if rng.Intn(3) == 0 {
				a.Header.Flags |= packet.FlagNoShrink
			}
			// Each capsule runs twice so both the compile-inline and the
			// cached-plan entries are exercised.
			for rep := 0; rep < 2; rep++ {
				e.run(t, fmt.Sprintf("%s trial %d rep %d", tmpl.Name, trial, rep), a)
			}
		}
	}
	if e.plan.ProgramsRun == 0 {
		t.Fatal("nothing executed")
	}
	e.check(t)
}

func TestDifferentialBranchDense(t *testing.T) {
	// Branch-heavy programs: stress the disabled-until-label machinery.
	e := newEnginePair(t, testConfig())
	e.both(func(r *Runtime) { r.AdmitStateless(1) })
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 1500; trial++ {
		p := &isa.Program{Name: "branchy"}
		// Alternating loads and conditional jumps.
		label := uint8(1)
		for i := 0; i < 16; i++ {
			switch rng.Intn(3) {
			case 0:
				p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpMbrLoad, Operand: uint8(rng.Intn(4))})
			case 1:
				p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpMbrNot})
			case 2:
				p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpNop})
			}
		}
		for b := 0; b < 3 && label <= isa.MaxLabel; b++ {
			src := rng.Intn(len(p.Instrs) - 1)
			tgt := src + 1 + rng.Intn(len(p.Instrs)-src-1)
			if p.Instrs[tgt].Label != 0 || p.Instrs[src].Op.IsBranch() {
				continue
			}
			ops := []isa.Opcode{isa.OpCJump, isa.OpCJumpI, isa.OpUJump}
			p.Instrs[src] = isa.Instruction{Op: ops[rng.Intn(3)], Operand: label}
			p.Instrs[tgt].Label = label
			label++
		}
		if p.Validate() != nil {
			continue
		}
		args := [4]uint32{rng.Uint32() & 1, rng.Uint32(), rng.Uint32(), rng.Uint32()}
		e.run(t, fmt.Sprintf("trial %d", trial), progPacket(1, p, args))
	}
	e.check(t)
}
