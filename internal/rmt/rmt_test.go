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
	tc := &TCAM{capacity: 64, gen: new(uint64)}
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
	tc := &TCAM{capacity: 4, gen: new(uint64)}
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

// execPlan compiles p's program for its FID against d's tables, with no
// mirror sessions, and runs p through the plan.
func execPlan(d *Device, p *PHV, instrs []isa.Instruction) []*PHV {
	return d.ExecPlan(d.CompilePlan(new(Plan), p.FID, instrs, nil), p, nil)
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
	var prev time.Duration
	for _, n := range []int{10, 20, 30, 40} {
		p := &PHV{}
		outs := execPlan(d, p, append(nops(n-1), isa.Instruction{Op: isa.OpReturn}))
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
	p := &PHV{}
	execPlan(d, p, nops(20))
	if p.Latency != DefaultPassLatency {
		t.Errorf("one-pass latency = %v, want %v", p.Latency, DefaultPassLatency)
	}
	if p.Passes != 1 {
		t.Errorf("Passes = %d, want 1", p.Passes)
	}
}

func TestExecRecirculation(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	execPlan(d, p, nops(45)) // 3 passes
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
	p := &PHV{}
	execPlan(d, p, nops(100)) // needs 5 passes > 2 allowed
	if !p.Dropped {
		t.Fatal("runaway program not dropped")
	}
	if p.StagesRun != 40 || p.Exit != 40 {
		t.Errorf("StagesRun = %d, Exit = %d, want 40", p.StagesRun, p.Exit)
	}
	if d.PacketsDropped != 1 {
		t.Errorf("PacketsDropped = %d", d.PacketsDropped)
	}
}

func TestExecDropInstruction(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	outs := execPlan(d, p, append(nops(4), isa.Instruction{Op: isa.OpDrop}))
	if !p.Dropped || len(outs) != 1 {
		t.Fatal("DROP did not drop")
	}
	if p.StagesRun != 5 {
		t.Errorf("StagesRun = %d, want 5", p.StagesRun)
	}
}

func TestExecBranchSkipsUntilLabel(t *testing.T) {
	d := testDevice(t)
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
	p := &PHV{Data: [4]uint32{1}}
	execPlan(d, p, prog)
	if p.MBR != ^uint32(1) {
		t.Errorf("MBR = %#x, want %#x (exactly one NOT)", p.MBR, ^uint32(1))
	}
	if d.Stage(2).Executed != 0 || d.Stage(4).Executed != 1 {
		t.Errorf("stage counts %d/%d: a skipped slot counted or the label did not", d.Stage(2).Executed, d.Stage(4).Executed)
	}
	// Branch not taken: all three NOTs run.
	p2 := &PHV{Data: [4]uint32{0}}
	execPlan(d, p2, prog)
	if p2.MBR != ^uint32(0) { // three NOTs of 0 toggle thrice
		t.Errorf("untaken branch: MBR = %#x, want %#x", p2.MBR, ^uint32(0))
	}
}

func TestExecBranchAcrossPasses(t *testing.T) {
	d := testDevice(t)
	// Jump from pass 0 to a label in pass 1.
	prog := append([]isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 2},
	}, nops(25)...)
	prog = append(prog, isa.Instruction{Op: isa.OpMbrNot, Label: 2}, isa.Instruction{Op: isa.OpReturn})
	p := &PHV{Data: [4]uint32{1}}
	execPlan(d, p, prog)
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

// TestExecFork pins FORK's order: the clone resumes at the slot after the
// FORK, one recirculation later, and runs to completion before the primary
// continues, so its register effects land first; a clone's own clones come
// right after it in the outputs.
func TestExecFork(t *testing.T) {
	d := testDevice(t)
	if err := d.Stage(2).Prot.Install(Region{FID: 1, Lo: 0, Hi: 16}); err != nil {
		t.Fatal(err)
	}
	pl := d.CompilePlan(new(Plan), 1, []isa.Instruction{
		{Op: isa.OpFork},
		{Op: isa.OpFork},
		{Op: isa.OpMemIncrement}, // stage 2, MAR 0
		{Op: isa.OpMbrStore, Operand: 0},
		{Op: isa.OpReturn},
	}, nil)
	p := &PHV{FID: 1}
	outs := d.ExecPlan(pl, p, nil)
	if len(outs) != 4 {
		t.Fatalf("outputs = %d, want 4", len(outs))
	}
	// The primary's first clone forks again at slot 1, and that clone
	// increments first; then the first clone, the primary's second clone and
	// the primary. Every clone is charged one extra pass, however deep.
	for i, w := range []struct {
		clone bool
		count uint32
		slots int
	}{{false, 4, 5}, {true, 2, 25}, {true, 1, 25}, {true, 3, 25}} {
		o := outs[i]
		if o.IsClone != w.clone || o.Data[0] != w.count || o.Exit != 5 || o.StagesRun != w.slots || o.Dropped {
			t.Errorf("output %d: clone %v count %d exit %d slots %d dropped %v, want %+v",
				i, o.IsClone, o.Data[0], o.Exit, o.StagesRun, o.Dropped, w)
		}
	}
	if outs[1].Latency <= p.Latency {
		t.Errorf("clone latency %v should exceed primary %v (recirculation)", outs[1].Latency, p.Latency)
	}
	if d.Recirculations != 3 || d.PacketsIn != 1 {
		t.Errorf("Recirculations %d PacketsIn %d, want 3 (one per clone) and 1", d.Recirculations, d.PacketsIn)
	}
	// Passing the buffer back reuses the clones' PHVs.
	clone := outs[1]
	if avg := testing.AllocsPerRun(20, func() {
		*p = PHV{FID: 1}
		outs = d.ExecPlan(pl, p, outs[:0])
	}); avg != 0 {
		t.Errorf("ExecPlan with a warm output buffer allocates %.1f/run, want 0", avg)
	}
	if outs[1] != clone {
		t.Error("clone PHV not reused from the output buffer")
	}
}

func TestExecRTSAtEgressCostsExtraPass(t *testing.T) {
	d := testDevice(t)
	// RTS in ingress: no penalty.
	pIn := &PHV{}
	execPlan(d, pIn, append(nops(5), isa.Instruction{Op: isa.OpRts}, isa.Instruction{Op: isa.OpReturn}))
	if pIn.StagesRun != 7 {
		t.Errorf("ingress RTS StagesRun = %d, want 7", pIn.StagesRun)
	}
	// RTS at egress (stage 15): one extra pass.
	pEg := &PHV{}
	execPlan(d, pEg, append(nops(15), isa.Instruction{Op: isa.OpRts}, isa.Instruction{Op: isa.OpReturn}))
	if pEg.StagesRun != 17+20 {
		t.Errorf("egress RTS StagesRun = %d, want %d", pEg.StagesRun, 37)
	}
	if !pEg.ToSender {
		t.Error("ToSender unset")
	}
}

func TestExecEmptyProgram(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	outs := execPlan(d, p, nil)
	if len(outs) != 1 || !p.Complete {
		t.Fatal("empty program mishandled")
	}
	if p.StagesRun != 1 || p.Passes != 1 || p.Exit != 0 {
		t.Errorf("StagesRun=%d Passes=%d Exit=%d, want 1/1/0", p.StagesRun, p.Passes, p.Exit)
	}
}

// TestExecMarksExecutedFlags: Exit counts the headers traversed, RETURN's
// included, so the deparser shrinks exactly those.
func TestExecMarksExecutedFlags(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	execPlan(d, p, append(nops(3), isa.Instruction{Op: isa.OpReturn}, isa.Instruction{Op: isa.OpNop}))
	if p.Exit != 4 {
		t.Errorf("Exit = %d, want 4 (the post-RETURN header untraversed)", p.Exit)
	}
}

// TestExecUninstalledOpcodeIsNoop: an opcode with no action (EOF in a
// malformed body) misses the stage's table: no effect and no count.
func TestExecUninstalledOpcodeIsNoop(t *testing.T) {
	d := testDevice(t)
	p := &PHV{}
	execPlan(d, p, []isa.Instruction{{Op: isa.OpEOF}, {Op: isa.OpEOF}, {Op: isa.OpNop}})
	if !p.Complete || p.Dropped || p.Exit != 3 {
		t.Error("opcodes without an action should pass through")
	}
	if d.Stage(0).Executed != 0 || d.Stage(1).Executed != 0 || d.Stage(2).Executed != 1 {
		t.Errorf("stage counts %d/%d/%d, want 0/0/1", d.Stage(0).Executed, d.Stage(1).Executed, d.Stage(2).Executed)
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
	words := [NumHashWords]uint32{1, 2, 3, 4}
	h0 := StageHash(0, words)
	if h0 == StageHash(1, words) {
		t.Error("hash units in different stages should be independent")
	}
	if StageHash(0, words) != h0 {
		t.Error("hash not deterministic")
	}
	// A zero HASH selector picks the stage's unit, a nonzero one the fixed
	// function, whatever the stage.
	d := testDevice(t)
	for _, c := range []struct {
		selector uint8
		stage    int
		want     uint32
	}{{0, 3, StageHash(3, words)}, {1, 3, FixedHash(1, words)}, {1, 5, FixedHash(1, words)}} {
		p := &PHV{HashData: words}
		execPlan(d, p, append(nops(c.stage), isa.Instruction{Op: isa.OpHash, Operand: c.selector}))
		if p.MAR != c.want {
			t.Errorf("HASH %d in stage %d = %#x, want %#x", c.selector, c.stage, p.MAR, c.want)
		}
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

// TestTranslateRegion: a region's entry masks to the largest power-of-two
// window that fits it and offsets to its base.
func TestTranslateRegion(t *testing.T) {
	for n, want := range map[uint32]uint32{256: 255, 300: 255, 4096: 4095, 1: 0} {
		if got := TranslateRegion(64, 64+n); got != (Translate{Mask: want, Offset: 64}) {
			t.Errorf("TranslateRegion(64, %d) = %+v, want mask %d", 64+n, got, want)
		}
	}
	if got := TranslateRegion(5, 5); got != (Translate{}) {
		t.Errorf("empty region: %+v, want no entry", got)
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
	var evs []TraceEvent
	d.SetTrace(func(ev TraceEvent) { evs = append(evs, ev) })
	prog := []isa.Instruction{
		{Op: isa.OpMbrLoad, Operand: 0}, // MBR <- 1
		{Op: isa.OpCJump, Operand: 1},   // taken
		{Op: isa.OpMbrNot},              // skipped
		{Op: isa.OpMbrNot, Label: 1},    // resumes
		{Op: isa.OpFork},                // the clone's slots come first
		{Op: isa.OpReturn},
	}
	execPlan(d, &PHV{Data: [4]uint32{1}}, prog)
	// Primary 0-3, the clone's RETURN (5), then the primary's FORK and
	// RETURN.
	if len(evs) != 7 {
		t.Fatalf("events = %d, want 7", len(evs))
	}
	for i, want := range []int{0, 1, 2, 3, 5, 4, 5} {
		if evs[i].Logical != want || evs[i].In != prog[want] {
			t.Errorf("event %d: slot %d %v, want slot %d", i, evs[i].Logical, evs[i].In, want)
		}
	}
	if !evs[2].Skipped {
		t.Error("skipped instruction not flagged")
	}
	if evs[3].Skipped {
		t.Error("label-resumed instruction flagged as skipped")
	}
	if !evs[4].Complete || evs[5].Complete || !evs[6].Complete {
		t.Error("completion flags wrong: the clone's RETURN and the primary's")
	}
	if evs[0].MBR != 1 {
		t.Errorf("trace MBR = %d", evs[0].MBR)
	}
	// Physical stage wraps for recirculated slots.
	if evs[3].Stage != 3 || evs[3].Logical != 3 {
		t.Errorf("event 3 stage/logical = %d/%d", evs[3].Stage, evs[3].Logical)
	}
	d.SetTrace(nil) // disable: no panic on next exec
	execPlan(d, &PHV{}, nops(3))
}

func TestForkMirrorDst(t *testing.T) {
	d := testDevice(t)
	sessions := func(session uint8) (uint32, bool) { return 42, session == 1 }
	prog := []isa.Instruction{{Op: isa.OpFork, Operand: 1}, {Op: isa.OpFork, Operand: 2}, {Op: isa.OpReturn}}
	outs := d.ExecPlan(d.CompilePlan(new(Plan), 0, prog, sessions), &PHV{}, nil)
	if len(outs) != 4 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if outs[0].DstSet {
		t.Error("original steered to mirror port")
	}
	// The session-1 clone and its own unmirrored clone inherit the port; the
	// primary's session-2 clone has no session.
	for i, want := range []bool{false, true, true, false} {
		if outs[i].DstSet != want || (want && outs[i].Dst != 42) {
			t.Errorf("output %d dst = %v/%d, want set %v to 42", i, outs[i].DstSet, outs[i].Dst, want)
		}
	}
}
