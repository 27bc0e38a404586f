package rmt

import (
	"testing"
	"testing/quick"
	"time"

	"activermt/internal/isa"
)

func TestPrefixCountBasics(t *testing.T) {
	cases := []struct {
		lo, hi uint32
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 256, 1},   // aligned power of two: one prefix
		{256, 512, 1}, // aligned
		{0, 3, 2},     // [0,2) + [2,3)
		{1, 2, 1},
		{1, 16, 4},      // 1,2-4,4-8,8-16
		{5, 21, 5},      // 5-6,6-8,8-16,16-20,20-21
		{0, 1 << 17, 1}, // whole 94K-ish space rounded up
	}
	for _, c := range cases {
		if got := PrefixCount(c.lo, c.hi); got != c.want {
			t.Errorf("PrefixCount(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestPrefixCountProperties(t *testing.T) {
	// The expansion of [lo,hi) never exceeds 2*W-2 entries and is at least
	// 1 for nonempty ranges; it covers exactly hi-lo addresses.
	f := func(a, b uint16) bool {
		lo, hi := uint32(a), uint32(a)+uint32(b)
		n := PrefixCount(lo, hi)
		if lo == hi {
			return n == 0
		}
		return n >= 1 && n <= 2*32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixDiff(t *testing.T) {
	cases := []struct {
		a, b Region
		want int
	}{
		{Region{}, Region{}, 0},
		{Region{Lo: 5, Hi: 21}, Region{FID: 9, Lo: 5, Hi: 21}, 0}, // the owner is not compared
		{Region{}, Region{Lo: 5, Hi: 21}, 5},                      // a fresh install costs the expansion
		{Region{Lo: 0, Hi: 256}, Region{Lo: 0, Hi: 128}, 2},       // one entry out, one in
		{Region{Lo: 0, Hi: 256}, Region{Lo: 0, Hi: 384}, 1},       // [256,384) added, [0,256) shared
		{Region{Lo: 5, Hi: 21}, Region{Lo: 5, Hi: 20}, 1},         // 20-21 dropped
		{Region{Lo: 5, Hi: 21}, Region{Lo: 6, Hi: 21}, 1},         // 5-6 dropped
		{Region{Lo: 0, Hi: 16}, Region{Lo: 16, Hi: 32}, 2},        // a move shares nothing
	}
	for _, c := range cases {
		if got := PrefixDiff(c.a, c.b); got != c.want {
			t.Errorf("PrefixDiff(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := PrefixDiff(c.b, c.a); got != c.want {
			t.Errorf("PrefixDiff(%v, %v) = %d, want %d (symmetric)", c.b, c.a, got, c.want)
		}
	}
}

func TestTCAMInstallLookupRemove(t *testing.T) {
	tc := NewTCAM(64)
	if err := tc.Install(Region{FID: 1, Lo: 0, Hi: 256}); err != nil {
		t.Fatal(err)
	}
	if err := tc.Install(Region{FID: 2, Lo: 256, Hi: 512}); err != nil {
		t.Fatal(err)
	}
	if !tc.Lookup(1, 0) || !tc.Lookup(1, 255) || tc.Lookup(1, 256) {
		t.Error("fid 1 range check failed")
	}
	if !tc.Lookup(2, 256) || tc.Lookup(2, 512) || tc.Lookup(3, 100) {
		t.Error("fid 2/3 range check failed")
	}
	if tc.Len() != 2 {
		t.Errorf("Len = %d", tc.Len())
	}
	freed := tc.Remove(1)
	if freed != 1 {
		t.Errorf("Remove freed %d entries, want 1", freed)
	}
	if tc.Lookup(1, 0) {
		t.Error("fid 1 still matches after removal")
	}
	if tc.Remove(1) != 0 {
		t.Error("double remove freed entries")
	}
}

func TestTCAMCapacity(t *testing.T) {
	tc := NewTCAM(4)
	// [5,21) costs 5 entries > capacity 4.
	err := tc.Install(Region{FID: 1, Lo: 5, Hi: 21})
	if err == nil {
		t.Fatal("over-capacity install accepted")
	}
	if _, ok := err.(*ErrTCAMFull); !ok {
		t.Fatalf("error type %T, want *ErrTCAMFull", err)
	}
	// Aligned region costs 1.
	if err := tc.Install(Region{FID: 1, Lo: 0, Hi: 4}); err != nil {
		t.Fatal(err)
	}
	if tc.Used() != 1 {
		t.Errorf("Used = %d, want 1", tc.Used())
	}
	// Replacement frees the old cost first.
	if err := tc.Install(Region{FID: 1, Lo: 4, Hi: 8}); err != nil {
		t.Fatalf("replacement rejected: %v", err)
	}
	if tc.Used() != 1 {
		t.Errorf("Used after replace = %d, want 1", tc.Used())
	}
	if tc.Lookup(1, 2) || !tc.Lookup(1, 5) {
		t.Error("replacement did not take effect")
	}
	if err := tc.Install(Region{FID: 2, Lo: 8, Hi: 4}); err == nil {
		t.Error("inverted region accepted")
	}
}

func TestRegisterArray(t *testing.T) {
	r := NewRegisterArray(16)
	if r.Len() != 16 || !r.InRange(15) || r.InRange(16) {
		t.Fatal("bounds wrong")
	}
	r.Write(3, 42)
	if got := r.Read(3); got != 42 {
		t.Errorf("Read = %d", got)
	}
	r.Write(3, 47)
	if r.Reads != 1 || r.Writes != 2 {
		t.Errorf("counters = %d reads / %d writes", r.Reads, r.Writes)
	}
	snap, err := r.Snapshot(2, 5)
	if err != nil || len(snap) != 3 || snap[1] != 47 {
		t.Errorf("Snapshot = %v, %v", snap, err)
	}
	if err := r.Restore(10, []uint32{7, 8}); err != nil {
		t.Fatal(err)
	}
	if r.Read(11) != 8 {
		t.Error("Restore did not land")
	}
	if err := r.Zero(10, 12); err != nil {
		t.Fatal(err)
	}
	if r.Read(10) != 0 || r.Read(11) != 0 {
		t.Error("Zero did not clear")
	}
	// Bounds errors.
	if _, err := r.Snapshot(5, 2); err == nil {
		t.Error("inverted snapshot accepted")
	}
	if _, err := r.Snapshot(0, 17); err == nil {
		t.Error("oversize snapshot accepted")
	}
	if err := r.Restore(15, []uint32{1, 2}); err == nil {
		t.Error("oversize restore accepted")
	}
	if err := r.Zero(0, 17); err == nil {
		t.Error("oversize zero accepted")
	}
}

func testDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.StageWords = 1024 // keep tests light
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// installTestActions wires a minimal interpreter sufficient for device
// mechanics tests (the full interpreter lives in package runtime).
func installTestActions(d *Device) {
	d.SetAction(isa.OpNop, func(ctx *Ctx, in isa.Instruction) {})
	d.SetAction(isa.OpReturn, func(ctx *Ctx, in isa.Instruction) { ctx.PHV.Complete = true })
	d.SetAction(isa.OpDrop, func(ctx *Ctx, in isa.Instruction) { ctx.PHV.Dropped = true })
	d.SetAction(isa.OpMbrLoad, func(ctx *Ctx, in isa.Instruction) { ctx.PHV.MBR = ctx.PHV.Data[in.Operand] })
	d.SetAction(isa.OpCJump, func(ctx *Ctx, in isa.Instruction) {
		if ctx.PHV.MBR != 0 {
			ctx.PHV.DisabledUntil = in.Operand
		}
	})
	d.SetAction(isa.OpFork, func(ctx *Ctx, in isa.Instruction) { ctx.PHV.RequestFork() })
	d.SetAction(isa.OpRts, func(ctx *Ctx, in isa.Instruction) {
		ctx.PHV.ToSender = true
		if ctx.StageIdx >= ctx.Dev.NumIngress() {
			ctx.PHV.MarkRTSAtEgress()
		}
	})
	d.SetAction(isa.OpMbrNot, func(ctx *Ctx, in isa.Instruction) { ctx.PHV.MBR = ^ctx.PHV.MBR })
}

func nops(n int) []isa.Instruction {
	out := make([]isa.Instruction, n)
	for i := range out {
		out[i] = isa.Instruction{Op: isa.OpNop}
	}
	return out
}

func TestExecLatencyLinear(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	var prev time.Duration
	for _, n := range []int{10, 20, 30, 40} {
		p := &PHV{Instrs: append(nops(n-1), isa.Instruction{Op: isa.OpReturn})}
		outs := d.Exec(p)
		if len(outs) != 1 || !p.Complete || p.Dropped {
			t.Fatalf("n=%d: outs=%d complete=%v dropped=%v", n, len(outs), p.Complete, p.Dropped)
		}
		if p.StagesRun != n {
			t.Errorf("n=%d: StagesRun = %d", n, p.StagesRun)
		}
		if p.Latency <= prev {
			t.Errorf("n=%d: latency %v not increasing (prev %v)", n, p.Latency, prev)
		}
		prev = p.Latency
	}
	// 20 instructions = exactly one pass = PassLatency.
	p := &PHV{Instrs: nops(20)}
	d.Exec(p)
	if p.Latency != DefaultPassLatency {
		t.Errorf("one-pass latency = %v, want %v", p.Latency, DefaultPassLatency)
	}
	if p.Passes != 1 {
		t.Errorf("Passes = %d, want 1", p.Passes)
	}
}

func TestExecRecirculation(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	p := &PHV{Instrs: nops(45)} // 3 passes
	d.Exec(p)
	if p.Passes != 3 {
		t.Errorf("Passes = %d, want 3", p.Passes)
	}
	if d.Recirculations != 2 {
		t.Errorf("Recirculations = %d, want 2", d.Recirculations)
	}
	if !p.Complete {
		t.Error("implicit completion missing")
	}
}

func TestExecRecirculationLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StageWords = 64
	cfg.MaxPasses = 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	installTestActions(d)
	p := &PHV{Instrs: nops(100)} // needs 5 passes > 2 allowed
	d.Exec(p)
	if !p.Dropped {
		t.Fatal("runaway program not dropped")
	}
	if p.StagesRun != 40 {
		t.Errorf("StagesRun = %d, want 40", p.StagesRun)
	}
	if d.PacketsDropped != 1 {
		t.Errorf("PacketsDropped = %d", d.PacketsDropped)
	}
}

func TestExecDropInstruction(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	p := &PHV{Instrs: append(nops(4), isa.Instruction{Op: isa.OpDrop})}
	outs := d.Exec(p)
	if !p.Dropped || len(outs) != 1 {
		t.Fatal("DROP did not drop")
	}
	if p.StagesRun != 5 {
		t.Errorf("StagesRun = %d, want 5", p.StagesRun)
	}
}

func TestExecBranchSkipsUntilLabel(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	// MBR=1 -> CJUMP taken -> the MBR_NOT in the skipped arm must not run;
	// execution resumes at the labeled instruction.
	prog := []isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 1},   // jump L1
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot, Label: 1},    // L1: executes
		{Op: isa.OpReturn},
	}
	p := &PHV{Data: [4]uint32{1}, Instrs: prog}
	d.Exec(p)
	if p.MBR != ^uint32(1) {
		t.Errorf("MBR = %#x, want %#x (exactly one NOT)", p.MBR, ^uint32(1))
	}
	// Branch not taken: all three NOTs run.
	p2 := &PHV{Data: [4]uint32{0}, Instrs: append([]isa.Instruction(nil), prog...)}
	d.Exec(p2)
	if p2.MBR != ^uint32(0) { // three NOTs of 0 toggle thrice
		t.Errorf("untaken branch: MBR = %#x, want %#x", p2.MBR, ^uint32(0))
	}
}

func TestExecBranchAcrossPasses(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	// Jump from pass 0 to a label in pass 1.
	prog := append([]isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 2},
	}, nops(25)...)
	prog = append(prog, isa.Instruction{Op: isa.OpMbrNot, Label: 2}, isa.Instruction{Op: isa.OpReturn})
	p := &PHV{Data: [4]uint32{1}, Instrs: prog}
	d.Exec(p)
	if !p.Complete || p.Dropped {
		t.Fatal("cross-pass branch did not complete")
	}
	if p.MBR != ^uint32(1) {
		t.Errorf("MBR = %#x, want %#x", p.MBR, ^uint32(1))
	}
	if p.Passes != 2 {
		t.Errorf("Passes = %d, want 2", p.Passes)
	}
}

func TestExecFork(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	prog := []isa.Instruction{
		{Op: isa.OpFork},
		{Op: isa.OpMbrNot},
		{Op: isa.OpReturn},
	}
	p := &PHV{Instrs: prog}
	outs := d.Exec(p)
	if len(outs) != 2 {
		t.Fatalf("outputs = %d, want 2", len(outs))
	}
	clone := outs[1]
	if !clone.IsClone || clone.Dropped {
		t.Error("clone flags wrong")
	}
	if clone.MBR != ^uint32(0) {
		t.Errorf("clone did not continue execution: MBR = %#x", clone.MBR)
	}
	if p.MBR != ^uint32(0) {
		t.Errorf("primary did not continue execution: MBR = %#x", p.MBR)
	}
	if clone.Latency <= p.Latency {
		t.Errorf("clone latency %v should exceed primary %v (recirculation)", clone.Latency, p.Latency)
	}
}

func TestExecRTSAtEgressCostsExtraPass(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	// RTS in ingress: no penalty.
	pIn := &PHV{Instrs: append(nops(5), isa.Instruction{Op: isa.OpRts}, isa.Instruction{Op: isa.OpReturn})}
	d.Exec(pIn)
	if pIn.StagesRun != 7 {
		t.Errorf("ingress RTS StagesRun = %d, want 7", pIn.StagesRun)
	}
	// RTS at egress (stage 15): one extra pass.
	pEg := &PHV{Instrs: append(nops(15), isa.Instruction{Op: isa.OpRts}, isa.Instruction{Op: isa.OpReturn})}
	d.Exec(pEg)
	if pEg.StagesRun != 17+20 {
		t.Errorf("egress RTS StagesRun = %d, want %d", pEg.StagesRun, 37)
	}
	if !pEg.ToSender {
		t.Error("ToSender unset")
	}
}

func TestExecEmptyProgram(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	p := &PHV{}
	outs := d.Exec(p)
	if len(outs) != 1 || !p.Complete {
		t.Fatal("empty program mishandled")
	}
	if p.StagesRun != 1 || p.Passes != 1 {
		t.Errorf("StagesRun=%d Passes=%d, want 1/1", p.StagesRun, p.Passes)
	}
}

func TestExecMarksExecutedFlags(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	p := &PHV{Instrs: append(nops(3), isa.Instruction{Op: isa.OpReturn}, isa.Instruction{Op: isa.OpNop})}
	d.Exec(p)
	for i := 0; i < 4; i++ {
		if !p.Instrs[i].Executed {
			t.Errorf("instr %d not marked executed", i)
		}
	}
	if p.Instrs[4].Executed {
		t.Error("post-RETURN instruction marked executed")
	}
}

func TestExecUninstalledOpcodeIsNoop(t *testing.T) {
	d := testDevice(t)
	// No actions installed at all.
	p := &PHV{Instrs: nops(5)}
	d.Exec(p)
	if !p.Complete || p.Dropped {
		t.Error("uninstalled opcodes should pass through")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{NumStages: 20, NumIngress: 0, StageWords: 10, MaxPasses: 1},
		{NumStages: 10, NumIngress: 11, StageWords: 10, MaxPasses: 1},
		{NumStages: 20, NumIngress: 10, StageWords: 0, MaxPasses: 1},
		{NumStages: 20, NumIngress: 10, StageWords: 10, MaxPasses: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestHashStageIndependence(t *testing.T) {
	d := testDevice(t)
	words := [NumHashWords]uint32{1, 2, 3, 4}
	h0 := d.Hash(0, 0, words)
	h1 := d.Hash(1, 0, words)
	if h0 == h1 {
		t.Error("hash units in different stages should be independent")
	}
	if d.Hash(0, 0, words) != h0 {
		t.Error("hash not deterministic")
	}
	// A nonzero selector picks a stage-independent fixed function.
	if d.Hash(0, 1, words) != d.Hash(5, 1, words) {
		t.Error("fixed hash unit varies by stage")
	}
	if d.Hash(0, 1, words) != FixedHash(1, words) {
		t.Error("fixed hash mismatch")
	}
	if StageHash(3, words) != d.Hash(3, 0, words) {
		t.Error("StageHash mismatch")
	}
}

func TestTranslateEntries(t *testing.T) {
	d := testDevice(t)
	s := d.Stage(3)
	s.SetTranslate(7, Translate{Mask: 0xFF, Offset: 100})
	tr, ok := s.TranslateFor(7)
	if !ok || tr.Mask != 0xFF || tr.Offset != 100 {
		t.Fatalf("TranslateFor = %+v, %v", tr, ok)
	}
	if n := s.ClearTranslate(7); n != 1 {
		t.Errorf("ClearTranslate = %d, want 1", n)
	}
	if n := s.ClearTranslate(7); n != 0 {
		t.Errorf("double ClearTranslate = %d, want 0", n)
	}
	if _, ok := s.TranslateFor(7); ok {
		t.Error("entry survived clear")
	}
}

func TestPhysicalStage(t *testing.T) {
	d := testDevice(t)
	if d.PhysicalStage(25) != 5 || d.PhysicalStage(5) != 5 || d.PhysicalStage(40) != 0 {
		t.Error("PhysicalStage mapping wrong")
	}
}

func TestTraceHook(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	var evs []TraceEvent
	d.SetTrace(func(ev TraceEvent) { evs = append(evs, ev) })
	prog := []isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 1},   // taken
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot, Label: 1},    // resumes
		{Op: isa.OpReturn},
	}
	d.Exec(&PHV{Data: [4]uint32{1}, Instrs: prog})
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5", len(evs))
	}
	if !evs[2].Skipped {
		t.Error("skipped instruction not flagged")
	}
	if evs[3].Skipped {
		t.Error("label-resumed instruction flagged as skipped")
	}
	if !evs[4].Complete {
		t.Error("final event not complete")
	}
	if evs[0].MBR != 1 {
		t.Errorf("trace MBR = %d", evs[0].MBR)
	}
	// Physical stage wraps for recirculated slots.
	if evs[3].Stage != 3 || evs[3].Logical != 3 {
		t.Errorf("event 3 stage/logical = %d/%d", evs[3].Stage, evs[3].Logical)
	}
	d.SetTrace(nil) // disable: no panic on next exec
	d.Exec(&PHV{Instrs: nops(3)})
}

func TestForkMirrorDst(t *testing.T) {
	d := testDevice(t)
	installTestActions(d)
	d.SetAction(isa.OpFork, func(ctx *Ctx, in isa.Instruction) {
		ctx.PHV.RequestFork()
		ctx.PHV.SetForkDst(42)
	})
	outs := d.Exec(&PHV{Instrs: []isa.Instruction{{Op: isa.OpFork}, {Op: isa.OpReturn}}})
	if len(outs) != 2 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if outs[0].DstSet {
		t.Error("original steered to mirror port")
	}
	if !outs[1].DstSet || outs[1].Dst != 42 {
		t.Errorf("clone dst = %v/%d, want 42", outs[1].DstSet, outs[1].Dst)
	}
}
