package runtime

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// This file is the reference interpreter the compiled plan is diffed against
// (rows R2 and R11 of docs/invariants.md, and FuzzPlanMatchesReference). It
// executes one instruction slot at a time with a switch over opcodes that
// reads the live TCAM, translation and register tables at every slot, and it
// writes the packet path's admission gate and output encoding out again
// beside it: it shares no code with rmt.Device.ExecPlan, the plan compiler or
// executeOne. It counts into the runtime and device it runs on, so two
// runtimes that take the same commits — one driven through ExecuteProgram,
// one through refExecute — must end with equal counters and memory.

// refPacket is one packet in the reference: its registers and flags, its own
// copy of the instruction headers (marked Executed as traversed) and the
// egress-RTS mark the plan keeps unexported.
type refPacket struct {
	phv         rmt.PHV
	instrs      []isa.Instruction
	rtsAtEgress bool
}

// refExecute runs one capsule through r's tables with the reference
// interpreter and returns its outputs, primary first, then FORK clones in
// preorder. The outputs are freshly allocated.
func refExecute(r *Runtime, a *packet.Active) []*Output {
	lat := r.dev.Config().PassLatency
	if a.Program == nil {
		return []*Output{{Active: a, Latency: lat}}
	}
	fid := a.Header.FID
	row := r.rowOf(fid)
	refused := func() []*Output {
		c := *a
		c.Header.Flags |= packet.FlagFailed
		return []*Output{{Active: &c, Dropped: true, Latency: lat}}
	}
	switch {
	case row.revoked:
		r.RevokedDrops++
		return refused()
	case !row.admitted:
		r.Passthrough++
		return []*Output{{Active: a, Latency: lat}}
	case row.quarantined && a.Header.Flags&packet.FlagMemSync == 0:
		r.QuarantineDrops++
		return refused()
	case !r.RecircAllowed(fid, a.Program.Len()):
		if r.guard != nil {
			r.guard.RecircThrottled(fid)
		}
		return refused()
	}

	r.ProgramsRun++
	p := &refPacket{instrs: slices.Clone(a.Program.Instrs)}
	p.phv.FID = fid
	p.phv.Data = a.Args
	if a.Header.Flags&packet.FlagPreload != 0 {
		p.phv.MAR = a.Args[2]
		p.phv.MBR = a.Args[0]
	}
	if tup, ok := packet.ParseFiveTuple(a.Payload); ok {
		p.phv.TupleWords = tup.WordsArray()
	}
	r.dev.PacketsIn++
	var pkts []*refPacket
	refRun(r, p, 0, 0, &pkts)

	outs := make([]*Output, len(pkts))
	for i, q := range pkts {
		if q.phv.Faulted {
			r.Faults++
			if r.guard != nil {
				r.guard.MemFault(fid)
			}
		}
		outs[i] = refOutput(a, q)
	}
	return outs
}

// refRun executes p from slot idx with extra stage slots already charged,
// appending p and then its clones to pkts.
func refRun(r *Runtime, p *refPacket, idx, extra int, pkts *[]*refPacket) {
	d := r.dev
	n := d.NumStages()
	maxSlots := d.Config().MaxPasses * n
	*pkts = append(*pkts, p)
	for !p.phv.Complete && !p.phv.Dropped {
		if idx >= len(p.instrs) {
			p.phv.Complete = true
			break
		}
		if idx >= maxSlots {
			p.phv.Dropped = true
			break
		}
		in := p.instrs[idx]
		p.instrs[idx].Executed = true
		if p.phv.DisabledUntil == 0 || in.Label == p.phv.DisabledUntil {
			p.phv.DisabledUntil = 0
			refStep(r, p, in, idx, pkts)
		}
		idx++
		if idx%n == 0 && idx < len(p.instrs) && idx < maxSlots && !p.phv.Complete && !p.phv.Dropped {
			d.Recirculations++
		}
	}
	slots := max(idx, 1)
	if p.rtsAtEgress && !p.phv.Dropped {
		slots += n
		d.Recirculations++
	}
	slots += extra
	p.phv.StagesRun = slots
	p.phv.Passes = (slots + n - 1) / n
	p.phv.Latency = time.Duration(int64(slots) * d.Config().PassLatency.Nanoseconds() / int64(n))
	if p.phv.Dropped {
		d.PacketsDropped++
	}
}

// refStep executes in at logical slot idx against the live tables of its
// physical stage.
func refStep(r *Runtime, p *refPacket, in isa.Instruction, idx int, pkts *[]*refPacket) {
	d := r.dev
	s := idx % d.NumStages()
	st := d.Stage(s)
	v := &p.phv
	if in.Op == isa.OpEOF || !in.Op.Valid() {
		return // no action: the table misses, nothing counts
	}
	st.Executed++
	egress := s >= d.Config().NumIngress
	mem := func(body func(addr uint32)) {
		addr := v.MAR
		if !st.Prot.Lookup(v.FID, addr) || !st.Registers.InRange(addr) {
			st.Registers.Faults++
			v.Dropped, v.Faulted, v.FaultAddr = true, true, addr
			return
		}
		body(addr)
	}
	switch in.Op {
	case isa.OpNop:
	case isa.OpMbrLoad:
		v.MBR = v.Data[in.Operand%4]
	case isa.OpMbrStore:
		v.Data[in.Operand%4] = v.MBR
	case isa.OpMbr2Load:
		v.MBR2 = v.Data[in.Operand%4]
	case isa.OpMarLoad:
		v.MAR = v.Data[in.Operand%4]
	case isa.OpCopyMbr2Mbr:
		v.MBR2 = v.MBR
	case isa.OpCopyMbrMbr2:
		v.MBR = v.MBR2
	case isa.OpCopyMarMbr:
		v.MAR = v.MBR
	case isa.OpCopyMbrMar:
		v.MBR = v.MAR
	case isa.OpCopyHashdataMbr:
		v.HashData[in.Operand%rmt.NumHashWords] = v.MBR
	case isa.OpCopyHashdataMbr2:
		v.HashData[in.Operand%rmt.NumHashWords] = v.MBR2
	case isa.OpHashdata5Tuple:
		v.HashData = v.TupleWords
	case isa.OpMbrAddMbr2:
		v.MBR += v.MBR2
	case isa.OpMarAddMbr:
		v.MAR += v.MBR
	case isa.OpMarAddMbr2:
		v.MAR += v.MBR2
	case isa.OpMarMbrAddMbr2:
		v.MAR = v.MBR + v.MBR2
	case isa.OpMbrSubMbr2:
		v.MBR -= v.MBR2
	case isa.OpBitAndMarMbr:
		v.MAR &= v.MBR
	case isa.OpBitOrMbrMbr2:
		v.MBR |= v.MBR2
	case isa.OpMbrEqualsMbr2:
		v.MBR ^= v.MBR2
	case isa.OpMbrEqualsData:
		v.MBR ^= v.Data[in.Operand%4]
	case isa.OpMax:
		v.MBR = max(v.MBR, v.MBR2)
	case isa.OpMin:
		v.MBR = min(v.MBR, v.MBR2)
	case isa.OpRevMin:
		v.MBR2 = min(v.MBR, v.MBR2)
	case isa.OpSwapMbrMbr2:
		v.MBR, v.MBR2 = v.MBR2, v.MBR
	case isa.OpMbrNot:
		v.MBR = ^v.MBR
	case isa.OpReturn:
		v.Complete = true
	case isa.OpCRet:
		v.Complete = v.MBR != 0
	case isa.OpCRetI:
		v.Complete = v.MBR == 0
	case isa.OpCJump:
		if v.MBR != 0 {
			v.DisabledUntil = in.Operand
		}
	case isa.OpCJumpI:
		if v.MBR == 0 {
			v.DisabledUntil = in.Operand
		}
	case isa.OpUJump:
		v.DisabledUntil = in.Operand
	case isa.OpMemRead:
		mem(func(addr uint32) { v.MBR = st.Registers.Read(addr); v.MAR++ })
	case isa.OpMemWrite:
		mem(func(addr uint32) { st.Registers.Write(addr, v.MBR); v.MAR++ })
	case isa.OpMemIncrement:
		mem(func(addr uint32) { v.MBR = st.Registers.Add(addr, max(uint32(in.Operand), 1)) })
	case isa.OpMemMinRead:
		mem(func(addr uint32) { v.MBR = min(v.MBR, st.Registers.Read(addr)) })
	case isa.OpMemMinReadInc:
		mem(func(addr uint32) { v.MBR = st.Registers.Add(addr, 1); v.MBR2 = min(v.MBR, v.MBR2) })
	case isa.OpDrop:
		v.Dropped = true
	case isa.OpSetDst:
		v.DstSet, v.Dst = true, v.MBR
		p.rtsAtEgress = p.rtsAtEgress || egress
	case isa.OpRts:
		v.ToSender = true
		p.rtsAtEgress = p.rtsAtEgress || egress
	case isa.OpCRts:
		if v.MBR != 0 {
			v.ToSender = true
			p.rtsAtEgress = p.rtsAtEgress || egress
		}
	case isa.OpAddrMask:
		if t, ok := st.TranslateFor(v.FID); ok {
			v.MAR &= t.Mask
		}
	case isa.OpAddrOffset:
		if t, ok := st.TranslateFor(v.FID); ok {
			v.MAR += t.Offset
		}
	case isa.OpHash:
		if in.Operand != 0 {
			v.MAR = rmt.FixedHash(uint32(in.Operand), v.HashData)
		} else {
			v.MAR = rmt.StageHash(s, v.HashData)
		}
	case isa.OpFork:
		// The clone recirculates and resumes at the next slot, running to
		// completion before this packet continues.
		c := &refPacket{phv: *v, instrs: slices.Clone(p.instrs), rtsAtEgress: p.rtsAtEgress}
		c.phv.IsClone = true
		if in.Operand != 0 {
			if port, ok := r.MirrorSession(v.FID, in.Operand); ok {
				c.phv.DstSet, c.phv.Dst = true, port
			}
		}
		d.Recirculations++
		refRun(r, c, idx+1, d.NumStages(), pkts)
	default:
		panic(fmt.Sprintf("reference: no semantics for %v", in.Op))
	}
}

// refOutput encodes one reference packet as the switch emits it.
func refOutput(a *packet.Active, q *refPacket) *Output {
	v := &q.phv
	var body []isa.Instruction
	for _, in := range q.instrs {
		if !in.Executed || a.Header.Flags&packet.FlagNoShrink != 0 {
			body = append(body, in)
		}
	}
	hdr := a.Header
	hdr.Flags |= packet.FlagFromSwch
	if v.Complete {
		hdr.Flags |= packet.FlagDone
	}
	if v.ToSender {
		hdr.Flags |= packet.FlagRTS
	}
	if v.Dropped {
		hdr.Flags |= packet.FlagFailed
	}
	hdr.SetType(packet.TypeProgram)
	return &Output{
		Active: &packet.Active{Header: hdr, Args: v.Data, Payload: a.Payload,
			Program: &isa.Program{Name: a.Program.Name, Instrs: body}},
		ToSender: v.ToSender, DstSet: v.DstSet, Dst: v.Dst, Dropped: v.Dropped,
		IsClone: v.IsClone, Executed: true, Latency: v.Latency, Passes: v.Passes,
	}
}

// enginePair is two runtimes built alike that take the same commits: plan
// executes through ExecuteProgram, ref through refExecute.
type enginePair struct{ plan, ref *Runtime }

func newEnginePair(t testing.TB, cfg rmt.Config) enginePair {
	t.Helper()
	var e enginePair
	for _, r := range []**Runtime{&e.plan, &e.ref} {
		var err error
		if *r, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// both applies one control-plane edit to each runtime.
func (e enginePair) both(fn func(r *Runtime)) { fn(e.plan); fn(e.ref) }

// run executes a on both engines and requires identical outputs.
func (e enginePair) run(t testing.TB, step string, a *packet.Active) []*Output {
	t.Helper()
	want := refExecute(e.ref, a)
	got := e.plan.ExecuteProgram(a)
	compareOutputs(t, step, want, got)
	return got
}

// check requires identical runtime, device and stage counters and identical
// register memory, and that the plan runtime ran every program through a
// plan.
func (e enginePair) check(t testing.TB) {
	t.Helper()
	p, r := e.plan, e.ref
	if p.SpecializedRuns != p.ProgramsRun {
		t.Fatalf("%d of %d programs ran through a plan", p.SpecializedRuns, p.ProgramsRun)
	}
	counters := func(r *Runtime) string {
		d := r.Device()
		s := fmt.Sprint("runtime ", r.ProgramsRun, r.Passthrough, r.Faults, r.RecircThrottled,
			r.QuarantineDrops, r.RevokedDrops, r.TableOps, " device ", d.PacketsIn, d.PacketsDropped, d.Recirculations)
		for i := 0; i < d.NumStages(); i++ {
			st := d.Stage(i)
			s += fmt.Sprint(" stage ", i, st.Executed, st.Registers.Reads, st.Registers.Writes, st.Registers.Faults)
		}
		return s
	}
	if a, b := counters(p), counters(r); a != b {
		t.Fatalf("counters diverged:\nplan      %s\nreference %s", a, b)
	}
	for i := 0; i < p.Device().NumStages(); i++ {
		rp, rr := p.Device().Stage(i).Registers, r.Device().Stage(i).Registers
		wp, _ := rp.Snapshot(0, uint32(rp.Len()))
		wr, _ := rr.Snapshot(0, uint32(rr.Len()))
		if j := slices.Compare(wp, wr); j != 0 {
			for k := range wp {
				if wp[k] != wr[k] {
					t.Fatalf("stage %d word %d: plan %d, reference %d", i, k, wp[k], wr[k])
				}
			}
		}
	}
}

// FuzzPlanMatchesReference decodes arbitrary bytes as a program — FORKs,
// mirror sessions, pre-marked headers and branch labels no instruction
// carries included — and runs it under a grant through ExecuteProgram and
// through the reference interpreter, twice so the cached plan runs too:
// outputs, every register word and every runtime, device and stage counter
// must match. flags are the capsule's header flags.
func FuzzPlanMatchesReference(f *testing.F) {
	for _, p := range []*isa.Program{
		isa.MustAssemble("counter", "MAR_LOAD 2\nMEM_INCREMENT\nMBR_STORE 0\nRTS\nRETURN"),
		isa.MustAssemble("nested-fork", "FORK\nFORK 1\nMBR_NOT\nMBR_STORE 0\nRETURN"),
		isa.MustAssemble("fork-write", "MAR_LOAD 2\nFORK 1\nMEM_INCREMENT\nMBR_STORE 0\nNOP\nMEM_WRITE\nSET_DST\nRETURN"),
		isa.MustAssemble("translate", "MBR_LOAD 0\nCOPY_HASHDATA_MBR\nHASH\nADDR_MASK\nADDR_OFFSET\nMEM_READ\nCRTS\nDROP"),
		{Name: "dangling-label", Instrs: []isa.Instruction{{Op: isa.OpMbrLoad}, {Op: isa.OpCJump, Operand: 3}, {Op: isa.OpMemRead}, {Op: isa.OpReturn}}},
		{Name: "pre-marked", Instrs: []isa.Instruction{{Op: isa.OpNop, Executed: true}, {Op: isa.OpFork}, {Op: isa.OpRts, Executed: true}}},
		{Name: "multi-pass", Instrs: append(make([]isa.Instruction, 45), isa.Instruction{Op: isa.OpFork})},
	} {
		for i := range p.Instrs {
			if p.Instrs[i].Op == isa.OpEOF {
				p.Instrs[i].Op = isa.OpNop
			}
		}
		f.Add(p.Encode(nil), uint32(300), uint32(1), uint16(0))
		f.Add(p.Encode(nil), uint32(5000), uint32(0), uint16(packet.FlagPreload|packet.FlagNoShrink))
	}
	f.Fuzz(func(t *testing.T, code []byte, mar, mbr uint32, flags uint16) {
		prog, _, err := isa.DecodeProgram(code)
		if err != nil {
			return
		}
		cfg := rmt.DefaultConfig()
		cfg.StageWords = 1024
		e := newEnginePair(t, cfg)
		// Memory in four stages; translation entries in some of the slots
		// before each, none in the others or after the last.
		g := Grant{FID: 1, Accesses: []AccessGrant{
			{Logical: 2, Lo: 256, Hi: 768, Xlate: []int{0, 1}}, {Logical: 5, Lo: 0, Hi: 1024, Xlate: []int{3, 4}},
			{Logical: 9, Lo: 512, Hi: 544, Xlate: []int{6, 8}}, {Logical: 14, Lo: 300, Hi: 1000, Xlate: []int{10, 13}},
		}}
		e.both(func(r *Runtime) {
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
			r.SetMirrorSession(1, 1, 7)
		})
		a := progPacket(1, prog, [4]uint32{mbr, mar ^ mbr, mar, ^mar})
		a.Header.Flags |= flags
		for rep := 0; rep < 2; rep++ {
			e.run(t, fmt.Sprintf("rep %d", rep), a)
		}
		e.check(t)
	})
}
