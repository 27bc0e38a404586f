package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"activermt/internal/apps"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/secapps"
)

// Differential testing: a reference interpreter with independently written
// semantics executes random straight-line programs (including forward
// branches and hashing), and its final register/data state must match the
// pipeline's. This pins the stage-sequential execution model — including
// branch skipping across stages and per-stage hash seeding — against an
// oracle.

// refState mirrors the PHV registers.
type refState struct {
	mar, mbr, mbr2 uint32
	data           [4]uint32
	hash           [rmt.NumHashWords]uint32
	complete       bool
	disabledUntil  uint8
}

// refStep executes one instruction at logical stage idx.
func refStep(s *refState, in isa.Instruction, idx, numStages int) {
	if s.complete {
		return
	}
	if s.disabledUntil != 0 {
		if in.Label != s.disabledUntil {
			return
		}
		s.disabledUntil = 0
	}
	switch in.Op {
	case isa.OpNop:
	case isa.OpMbrLoad:
		s.mbr = s.data[in.Operand%4]
	case isa.OpMbrStore:
		s.data[in.Operand%4] = s.mbr
	case isa.OpMbr2Load:
		s.mbr2 = s.data[in.Operand%4]
	case isa.OpMarLoad:
		s.mar = s.data[in.Operand%4]
	case isa.OpCopyMbr2Mbr:
		s.mbr2 = s.mbr
	case isa.OpCopyMbrMbr2:
		s.mbr = s.mbr2
	case isa.OpCopyMarMbr:
		s.mar = s.mbr
	case isa.OpCopyMbrMar:
		s.mbr = s.mar
	case isa.OpCopyHashdataMbr:
		s.hash[in.Operand%rmt.NumHashWords] = s.mbr
	case isa.OpCopyHashdataMbr2:
		s.hash[in.Operand%rmt.NumHashWords] = s.mbr2
	case isa.OpMbrAddMbr2:
		s.mbr += s.mbr2
	case isa.OpMarAddMbr:
		s.mar += s.mbr
	case isa.OpMarAddMbr2:
		s.mar += s.mbr2
	case isa.OpMarMbrAddMbr2:
		s.mar = s.mbr + s.mbr2
	case isa.OpMbrSubMbr2:
		s.mbr -= s.mbr2
	case isa.OpBitAndMarMbr:
		s.mar &= s.mbr
	case isa.OpBitOrMbrMbr2:
		s.mbr |= s.mbr2
	case isa.OpMbrEqualsMbr2:
		s.mbr ^= s.mbr2
	case isa.OpMbrEqualsData:
		s.mbr ^= s.data[in.Operand%4]
	case isa.OpMax:
		if s.mbr2 > s.mbr {
			s.mbr = s.mbr2
		}
	case isa.OpMin:
		if s.mbr2 < s.mbr {
			s.mbr = s.mbr2
		}
	case isa.OpRevMin:
		if s.mbr < s.mbr2 {
			s.mbr2 = s.mbr
		}
	case isa.OpSwapMbrMbr2:
		s.mbr, s.mbr2 = s.mbr2, s.mbr
	case isa.OpMbrNot:
		s.mbr = ^s.mbr
	case isa.OpReturn:
		s.complete = true
	case isa.OpCRet:
		if s.mbr != 0 {
			s.complete = true
		}
	case isa.OpCRetI:
		if s.mbr == 0 {
			s.complete = true
		}
	case isa.OpCJump:
		if s.mbr != 0 {
			s.disabledUntil = in.Operand
		}
	case isa.OpCJumpI:
		if s.mbr == 0 {
			s.disabledUntil = in.Operand
		}
	case isa.OpUJump:
		s.disabledUntil = in.Operand
	case isa.OpHash:
		if in.Operand != 0 {
			s.mar = rmt.FixedHash(uint32(in.Operand), s.hash)
		} else {
			s.mar = rmt.StageHash(idx%numStages, s.hash)
		}
	}
}

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
	r := testRuntime(t)
	r.AdmitStateless(1)
	numStages := r.Device().NumStages()
	maxSlots := r.Device().Config().MaxPasses * numStages
	rng := rand.New(rand.NewSource(20230910))

	for trial := 0; trial < 3000; trial++ {
		p := genProgram(rng)
		args := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}

		// Reference execution.
		ref := &refState{data: args}
		for idx, in := range p.Instrs {
			if idx >= maxSlots {
				break
			}
			refStep(ref, in, idx, numStages)
			if ref.complete {
				break
			}
		}

		// Pipeline execution.
		a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, Args: args, Program: p}
		a.Header.SetType(packet.TypeProgram)
		a.Header.Flags |= packet.FlagNoShrink
		outs := r.ExecuteProgram(a)
		if len(outs) != 1 {
			t.Fatalf("trial %d: %d outputs", trial, len(outs))
		}
		out := outs[0]
		if out.Dropped {
			// Programs longer than the recirculation limit drop; the
			// reference stops at maxSlots, so only compare data below.
			continue
		}
		if out.Active.Args != ref.data {
			t.Fatalf("trial %d: data mismatch\nprogram:\n%s\npipeline: %#v\nreference: %#v",
				trial, isa.Disassemble(p), out.Active.Args, ref.data)
		}
	}
}

// specOps extends safeOps with the switch-state opcodes the plan compiler
// folds at compile time: memory accesses, translation, and forwarding —
// the surface where a folding bug would diverge from the interpreter.
var specOps = append(append([]isa.Opcode{}, safeOps...),
	isa.OpMemRead, isa.OpMemWrite, isa.OpMemIncrement, isa.OpMemMinRead, isa.OpMemMinReadInc,
	isa.OpAddrMask, isa.OpAddrOffset,
	isa.OpRts, isa.OpCRts, isa.OpSetDst, isa.OpDrop, isa.OpReturn,
)

// genSpecProgram builds a random valid program over the full specializable
// surface, with occasional FORKs (uncompilable — exercises the
// cached-negative interpreter fallback) and forward branches.
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

// TestDifferentialSpecializedVsInterpreter drives two identical runtimes —
// one with specialization forced off (the interpreter oracle), one with it
// on — through the same random stream of programs, grant reinstalls (epoch
// bumps, moved regions), quarantine flips, privilege changes, revocations,
// and unadmitted FIDs, and requires bit-identical wire outputs plus
// identical runtime and device counters. Each capsule runs twice so both
// the compile-inline and the cached-plan entries are exercised.
func TestDifferentialSpecializedVsInterpreter(t *testing.T) {
	ri := testRuntime(t) // interpreter oracle
	rs := testRuntime(t) // specialized
	ri.SetSpecialization(false)

	rng := rand.New(rand.NewSource(0xA11CE))

	grant := func(fid uint16, lo, hi uint32) {
		for _, r := range []*Runtime{ri, rs} {
			g := Grant{FID: fid}
			for l := 0; l < 10; l++ {
				g.Accesses = append(g.Accesses, AccessGrant{Logical: l, Lo: lo, Hi: hi})
			}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	grant(1, 0, 512)
	grant(2, 512, 1024)
	grant(3, 1024, 1536)

	for trial := 0; trial < 2000; trial++ {
		// Occasionally commit control-plane changes, identically on both:
		// each one republishes the snapshots and invalidates rs's plans.
		switch rng.Intn(20) {
		case 0: // epoch bump + region move
			fid := uint16(1 + rng.Intn(3))
			base := uint32(rng.Intn(6)) * 512
			grant(fid, base, base+512)
		case 1: // quarantine flip
			fid := uint16(1 + rng.Intn(3))
			if ri.Quarantined(fid) {
				ri.Reactivate(fid)
				rs.Reactivate(fid)
			} else {
				ri.Deactivate(fid)
				rs.Deactivate(fid)
			}
		case 2: // privilege change
			fid := uint16(1 + rng.Intn(3))
			mask := uint8(0)
			if rng.Intn(2) == 0 {
				mask = PrivForwarding
			}
			ri.SetPrivilege(fid, mask)
			rs.SetPrivilege(fid, mask)
		case 3: // revocation (a later grant() re-admits)
			fid := uint16(1 + rng.Intn(3))
			ri.RemoveGrant(fid)
			rs.RemoveGrant(fid)
		}

		p := genSpecProgram(rng)
		fid := uint16(1 + rng.Intn(4)) // FID 4 is never admitted: passthrough
		args := [4]uint32{rng.Uint32(), rng.Uint32(), uint32(rng.Intn(2048)), rng.Uint32()}
		var flags uint16
		if rng.Intn(2) == 0 {
			flags |= packet.FlagPreload
		}
		if rng.Intn(3) == 0 {
			flags |= packet.FlagNoShrink
		}

		for rep := 0; rep < 2; rep++ {
			ai := progPacket(fid, p, args)
			as := progPacket(fid, p, args)
			ai.Header.Flags |= flags
			as.Header.Flags |= flags
			want := ri.ExecuteProgram(ai)
			got := rs.ExecuteProgram(as)
			compareOutputs(t, fmt.Sprintf("trial %d rep %d", trial, rep), want, got)
		}
	}

	if rs.SpecializedRuns == 0 {
		t.Fatal("specialized path never ran")
	}
	if ri.SpecializedRuns != 0 {
		t.Fatal("interpreter oracle ran a specialized packet")
	}
	if ri.ProgramsRun != rs.ProgramsRun || ri.Passthrough != rs.Passthrough ||
		ri.Faults != rs.Faults || ri.QuarantineDrops != rs.QuarantineDrops ||
		ri.RevokedDrops != rs.RevokedDrops || ri.PrivSuppressed != rs.PrivSuppressed {
		t.Fatalf("runtime counters diverged:\ninterp %d/%d/%d/%d/%d/%d\nspec   %d/%d/%d/%d/%d/%d",
			ri.ProgramsRun, ri.Passthrough, ri.Faults, ri.QuarantineDrops, ri.RevokedDrops, ri.PrivSuppressed,
			rs.ProgramsRun, rs.Passthrough, rs.Faults, rs.QuarantineDrops, rs.RevokedDrops, rs.PrivSuppressed)
	}
	di, ds := ri.Device(), rs.Device()
	if di.PacketsIn != ds.PacketsIn || di.PacketsDropped != ds.PacketsDropped || di.Recirculations != ds.Recirculations {
		t.Fatalf("device counters diverged: %d/%d/%d vs %d/%d/%d",
			di.PacketsIn, di.PacketsDropped, di.Recirculations,
			ds.PacketsIn, ds.PacketsDropped, ds.Recirculations)
	}
	for s := 0; s < di.NumStages(); s++ {
		si, ss := di.Stage(s), ds.Stage(s)
		if si.Executed != ss.Executed {
			t.Fatalf("stage %d executed %d vs %d", s, si.Executed, ss.Executed)
		}
		if si.Registers.Reads != ss.Registers.Reads || si.Registers.Writes != ss.Registers.Writes ||
			si.Registers.Faults != ss.Registers.Faults {
			t.Fatalf("stage %d register counters diverged", s)
		}
	}
}

// TestDifferentialRegisteredApps pins every registered exemplar program —
// the apps package and the secapps security/measurement suite — to
// bit-identical interpreter vs. specialized execution. The random fuzzers
// above explore the instruction space; this suite guarantees the programs
// we actually ship (including the multi-pass claim arm and the DROP-bearing
// rate limiter) never diverge between the two paths.
func TestDifferentialRegisteredApps(t *testing.T) {
	ri := testRuntime(t) // interpreter oracle
	rs := testRuntime(t) // specialized
	ri.SetSpecialization(false)

	rng := rand.New(rand.NewSource(0x5ECA))

	progs := append(apps.Programs(), secapps.Programs()...)
	if len(progs) < 12 {
		t.Fatalf("registered programs = %d, registry looks truncated", len(progs))
	}
	for pi, tmpl := range progs {
		fid := uint16(100 + pi)
		acc := tmpl.MemoryAccessIndices()
		lo := uint32((pi % 8) * 512)
		for _, r := range []*Runtime{ri, rs} {
			if len(acc) == 0 {
				r.AdmitStateless(fid)
				continue
			}
			g := Grant{FID: fid}
			for _, idx := range acc {
				g.Accesses = append(g.Accesses, AccessGrant{Logical: idx, Lo: lo, Hi: lo + 512})
			}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatalf("%s: grant: %v", tmpl.Name, err)
			}
		}
		for trial := 0; trial < 200; trial++ {
			args := [4]uint32{rng.Uint32(), rng.Uint32(), lo + uint32(rng.Intn(600)), rng.Uint32()}
			var flags uint16
			if rng.Intn(3) == 0 {
				flags |= packet.FlagNoShrink
			}
			// Each capsule runs twice so both the compile-inline and the
			// cached-plan entries are exercised.
			for rep := 0; rep < 2; rep++ {
				ai := progPacket(fid, tmpl, args)
				as := progPacket(fid, tmpl, args)
				ai.Header.Flags |= flags
				as.Header.Flags |= flags
				want := ri.ExecuteProgram(ai)
				got := rs.ExecuteProgram(as)
				compareOutputs(t, fmt.Sprintf("%s trial %d rep %d", tmpl.Name, trial, rep), want, got)
			}
		}
	}

	if rs.SpecializedRuns == 0 {
		t.Fatal("specialized path never ran")
	}
	if ri.ProgramsRun != rs.ProgramsRun || ri.Faults != rs.Faults {
		t.Fatalf("runtime counters diverged: %d/%d vs %d/%d",
			ri.ProgramsRun, ri.Faults, rs.ProgramsRun, rs.Faults)
	}
	di, ds := ri.Device(), rs.Device()
	if di.PacketsIn != ds.PacketsIn || di.PacketsDropped != ds.PacketsDropped || di.Recirculations != ds.Recirculations {
		t.Fatalf("device counters diverged: %d/%d/%d vs %d/%d/%d",
			di.PacketsIn, di.PacketsDropped, di.Recirculations,
			ds.PacketsIn, ds.PacketsDropped, ds.Recirculations)
	}
	for s := 0; s < di.NumStages(); s++ {
		si, ss := di.Stage(s), ds.Stage(s)
		if si.Executed != ss.Executed ||
			si.Registers.Reads != ss.Registers.Reads || si.Registers.Writes != ss.Registers.Writes ||
			si.Registers.Faults != ss.Registers.Faults {
			t.Fatalf("stage %d counters diverged", s)
		}
	}
}

func TestDifferentialBranchDense(t *testing.T) {
	// Branch-heavy programs: stress the disabled-until-label machinery.
	r := testRuntime(t)
	r.AdmitStateless(1)
	rng := rand.New(rand.NewSource(42))
	numStages := r.Device().NumStages()

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
		ref := &refState{data: args}
		for idx, in := range p.Instrs {
			refStep(ref, in, idx, numStages)
			if ref.complete {
				break
			}
		}
		a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, Args: args, Program: p}
		a.Header.SetType(packet.TypeProgram)
		out := r.ExecuteProgram(a)[0]
		if out.Active.Args != ref.data {
			t.Fatalf("trial %d mismatch\n%s\npipeline %#v\nref %#v", trial, isa.Disassemble(p), out.Active.Args, ref.data)
		}
	}
}
