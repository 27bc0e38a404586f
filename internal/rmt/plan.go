package rmt

import (
	"slices"
	"time"

	"activermt/internal/isa"
)

// This file is the device's one execution engine. A program is compiled —
// against the tables as they stand — into a flattened straight-line plan of
// resolved operations, one per instruction slot, so the per-packet loop pays
// for no stage dispatch and no table search for protection, translation or
// mirror state. Everything the switch resolves from control-plane state
// (physical stage, register array, grant bounds, translation mask/offset,
// hash seed, ingress/egress position, mirror port) is folded in at compile
// time; only the data-dependent work — register ALU ops, hashes, branch
// predication, FORK clones, recirculation accounting — runs per packet.
//
// A Plan is immutable after CompilePlan returns and is only valid while the
// tables it folded are unchanged: the owner (the runtime's plan table)
// remembers the device generation (Device.Gen) it compiled under and
// discards every plan when the generation moves, so a stale plan never
// executes. The runtime's tests diff every plan against a reference
// interpreter that reads the live tables per slot.

// planKind discriminates the dispatch shapes of a compiled slot.
type planKind uint8

const (
	// pkOp dispatches on the resolved opcode with folded fields.
	pkOp planKind = iota
	// pkCount counts Stage.Executed and does nothing else: NOP slots and
	// translation ops whose FID has no entry in the slot's stage.
	pkCount
	// pkFork counts Stage.Executed and clones the packet.
	pkFork
	// pkMiss is an opcode with no action (EOF in a malformed body): the
	// stage's table misses, so neither count nor effect.
	pkMiss
)

// planOp is one resolved instruction slot of a compiled plan.
type planOp struct {
	kind    planKind
	op      isa.Opcode
	operand uint8  // folded operand (already reduced mod its field width)
	label   uint8  // branch-target label carried by this slot
	egress  bool   // physical stage is in the egress pipeline
	mirror  bool   // FORK: the clone is steered to port
	inc     uint32 // MEM_INCREMENT delta, max(operand,1) folded
	seed    uint32 // HASH seed (selector or stage seed) folded
	lo, hi  uint32 // memory ops: folded protection ∩ array bounds; empty ⇒ always fault
	xlate   uint32 // ADDR_MASK's folded mask or ADDR_OFFSET's folded offset
	port    uint32 // FORK: the mirror session's egress port
	// st is the slot's physical stage: its Executed count and register array.
	st *Stage
}

// Plan is a compiled straight-line execution plan for one (FID, program
// version) under one device generation. Immutable after compilation.
type Plan struct {
	ops    []planOp
	instrs []isa.Instruction // the compiled image, for trace events
}

// Len returns the number of instruction slots in the plan.
func (pl *Plan) Len() int { return len(pl.ops) }

// CompilePlan compiles instrs for fid against the current tables into pl,
// rewriting every slot in pl's storage, and returns pl. mirror resolves a
// FORK operand to its mirror session's egress port (nil: no sessions). The
// plan keeps instrs for its trace events, so nobody may modify it
// afterwards: the runtime passes the decoded program's own image.
func (d *Device) CompilePlan(pl *Plan, fid uint16, instrs []isa.Instruction, mirror func(session uint8) (port uint32, ok bool)) *Plan {
	n := d.cfg.NumStages
	pl.ops, pl.instrs = slices.Grow(pl.ops[:0], len(instrs))[:len(instrs)], instrs
	for idx, in := range instrs {
		stage := idx % n
		o := &pl.ops[idx]
		*o = planOp{op: in.Op, label: in.Label, st: d.stages[stage], egress: stage >= d.cfg.NumIngress}
		switch in.Op {
		case isa.OpHashdata5Tuple, isa.OpCopyMbr2Mbr, isa.OpCopyMbrMbr2,
			isa.OpCopyMarMbr, isa.OpCopyMbrMar, isa.OpMbrAddMbr2, isa.OpMarAddMbr,
			isa.OpMarAddMbr2, isa.OpMarMbrAddMbr2, isa.OpMbrSubMbr2, isa.OpBitAndMarMbr,
			isa.OpBitOrMbrMbr2, isa.OpMbrEqualsMbr2, isa.OpMax, isa.OpMin, isa.OpRevMin,
			isa.OpSwapMbrMbr2, isa.OpMbrNot, isa.OpReturn, isa.OpCRet, isa.OpCRetI,
			isa.OpDrop, isa.OpRts, isa.OpCRts, isa.OpSetDst:
			// Nothing to fold.
		case isa.OpNop:
			o.kind = pkCount
		case isa.OpMbrLoad, isa.OpMbrStore, isa.OpMbr2Load, isa.OpMarLoad, isa.OpMbrEqualsData:
			o.operand = in.Operand % 4
		case isa.OpCopyHashdataMbr, isa.OpCopyHashdataMbr2:
			o.operand = in.Operand % NumHashWords
		case isa.OpCJump, isa.OpCJumpI, isa.OpUJump:
			o.operand = in.Operand
		case isa.OpMemRead, isa.OpMemWrite, isa.OpMemIncrement, isa.OpMemMinRead, isa.OpMemMinReadInc:
			if reg, ok := o.st.Prot.Region(fid); ok {
				// The grant installer validated Hi-1 against the array, but a
				// directly installed TCAM region may overhang it: clamp so the
				// folded bounds compare equals the TCAM lookup ∧ the array's
				// range check exactly.
				o.lo, o.hi = reg.Lo, reg.Hi
				if max := uint32(o.st.Registers.Len()); o.hi > max {
					o.hi = max
				}
			}
			if in.Op == isa.OpMemIncrement {
				o.inc = uint32(in.Operand)
				if o.inc == 0 {
					o.inc = 1
				}
			}
		case isa.OpAddrMask, isa.OpAddrOffset:
			if t, ok := o.st.TranslateFor(fid); !ok {
				o.kind = pkCount
			} else if in.Op == isa.OpAddrMask {
				o.xlate = t.Mask
			} else {
				o.xlate = t.Offset
			}
		case isa.OpHash:
			if in.Operand != 0 {
				o.seed = uint32(in.Operand)
			} else {
				o.seed = stageSeed(stage)
			}
		case isa.OpFork:
			// A nonzero operand names a mirror session: the clone is
			// steered to the session's egress port if one is installed
			// (Tofino clone sessions are control-plane state selected by
			// the FORK operand).
			o.kind = pkFork
			if in.Operand != 0 && mirror != nil {
				o.port, o.mirror = mirror(in.Operand)
			}
		default:
			o.kind = pkMiss
		}
	}
	return pl
}

// ExecPlan runs p through pl and returns outs with the packet's outputs
// appended in preorder: p first, then each FORK clone followed by its own
// clones. Dropped packets are still returned (with Dropped set) so callers
// can account for them. Exit, latency and pass counts are filled in on every
// output: Exit is the number of instruction headers the packet traversed,
// which tells the deparser what it may shrink.
//
// A clone reuses the PHV that outs' backing array holds just past its
// length, when there is one, so a caller that passes its previous result
// back re-sliced to [:0] allocates nothing for FORKs in steady state; those
// PHVs must be ones the caller no longer uses.
//
// Latency is modeled at stage granularity — PassLatency/NumStages per stage
// slot traversed — which reproduces the linear growth of Figure 8b; an RTS
// executed at egress charges one extra full pass (the recirculation needed
// to change ports, Section 3.1).
func (d *Device) ExecPlan(pl *Plan, p *PHV, outs []*PHV) []*PHV {
	d.PacketsIn++
	d.outs = outs
	d.runPlan(pl, p, 0, 0)
	return d.outs
}

// runPlan executes p from slot idx with extraSlots stage slots already
// charged (a clone's recirculation), appending p and then its clones to
// d.outs.
func (d *Device) runPlan(pl *Plan, p *PHV, idx, extraSlots int) {
	n := d.cfg.NumStages
	maxSlots := d.cfg.MaxPasses * n
	nOps := len(pl.ops)
	d.outs = append(d.outs, p)
	for !p.Complete && !p.Dropped {
		if idx >= nOps {
			p.Complete = true
			break
		}
		if idx >= maxSlots {
			// Recirculation limit: the switch polices bandwidth
			// inflation by dropping runaway programs.
			p.Dropped = true
			break
		}
		o := &pl.ops[idx]
		// A pending branch label skips the untaken arm; execution resumes
		// at the label.
		if p.DisabledUntil != 0 && o.label != p.DisabledUntil {
			if d.trace != nil {
				d.traceSlot(pl, p, idx, true)
			}
		} else {
			p.DisabledUntil = 0
			if execPlanOp(o, p) {
				d.fork(pl, o, p, idx)
			}
			if d.trace != nil {
				d.traceSlot(pl, p, idx, false)
			}
		}
		idx++
		if idx%n == 0 && idx < nOps && idx < maxSlots && !p.Complete && !p.Dropped {
			d.Recirculations++
		}
	}

	p.Exit = idx
	slots := idx
	if slots < 1 {
		slots = 1 // even an empty program traverses at least one stage
	}
	if p.rtsAtEgress && !p.Dropped {
		// Ports cannot change at egress: one extra pass to apply RTS.
		slots += n
		d.Recirculations++
	}
	slots += extraSlots
	p.StagesRun = slots
	p.Passes = (slots + n - 1) / n
	p.Latency = time.Duration(int64(slots) * d.cfg.PassLatency.Nanoseconds() / int64(n))
	if d.lat != nil {
		d.lat.Observe(uint64(p.Latency))
	}
	if p.Dropped {
		d.PacketsDropped++
	}
}

// traceSlot reports slot idx of p to the trace hook. It is a call of its
// own so that, with no hook set, runPlan's loop pays one nil test per slot.
func (d *Device) traceSlot(pl *Plan, p *PHV, idx int, skipped bool) {
	d.trace(TraceEvent{Logical: idx, Stage: idx % d.cfg.NumStages, In: pl.instrs[idx], Skipped: skipped,
		MAR: p.MAR, MBR: p.MBR, MBR2: p.MBR2, Complete: p.Complete, Dropped: p.Dropped})
}

// fork clones p at FORK slot idx and runs the clone to completion before p
// continues, so register effects land in program order. The clone resumes
// at the next logical stage after a recirculation (Section 3.1: instructions
// that clone packets require recirculation), charged as one extra pass.
func (d *Device) fork(pl *Plan, o *planOp, p *PHV, idx int) {
	var c *PHV
	if outs := d.outs; len(outs) < cap(outs) {
		c = outs[:len(outs)+1][len(outs)]
	}
	if c == nil {
		c = new(PHV)
	}
	*c = *p
	c.IsClone = true
	if o.mirror {
		c.DstSet, c.Dst = true, o.port
	}
	d.Recirculations++
	d.runPlan(pl, c, idx+1, d.cfg.NumStages)
}

// execPlanOp executes one resolved slot, every control-plane lookup
// replaced by the fields folded at compile time. A FORK slot only counts
// here and reports fork; the caller clones.
func execPlanOp(o *planOp, p *PHV) (fork bool) {
	if o.kind == pkMiss {
		return
	}
	o.st.Executed++
	if o.kind != pkOp {
		return o.kind == pkFork
	}
	switch o.op {
	case isa.OpMbrLoad:
		p.MBR = p.Data[o.operand]
	case isa.OpMbrStore:
		p.Data[o.operand] = p.MBR
	case isa.OpMbr2Load:
		p.MBR2 = p.Data[o.operand]
	case isa.OpMarLoad:
		p.MAR = p.Data[o.operand]
	case isa.OpCopyMbr2Mbr:
		p.MBR2 = p.MBR
	case isa.OpCopyMbrMbr2:
		p.MBR = p.MBR2
	case isa.OpCopyMarMbr:
		p.MAR = p.MBR
	case isa.OpCopyMbrMar:
		p.MBR = p.MAR
	case isa.OpCopyHashdataMbr:
		p.HashData[o.operand] = p.MBR
	case isa.OpCopyHashdataMbr2:
		p.HashData[o.operand] = p.MBR2
	case isa.OpHashdata5Tuple:
		p.HashData = p.TupleWords
	case isa.OpMbrAddMbr2:
		p.MBR += p.MBR2
	case isa.OpMarAddMbr:
		p.MAR += p.MBR
	case isa.OpMarAddMbr2:
		p.MAR += p.MBR2
	case isa.OpMarMbrAddMbr2:
		p.MAR = p.MBR + p.MBR2
	case isa.OpMbrSubMbr2:
		p.MBR -= p.MBR2
	case isa.OpBitAndMarMbr:
		p.MAR &= p.MBR
	case isa.OpBitOrMbrMbr2:
		p.MBR |= p.MBR2
	case isa.OpMbrEqualsMbr2:
		p.MBR ^= p.MBR2
	case isa.OpMbrEqualsData:
		p.MBR ^= p.Data[o.operand]
	case isa.OpMax:
		if p.MBR2 > p.MBR {
			p.MBR = p.MBR2
		}
	case isa.OpMin:
		if p.MBR2 < p.MBR {
			p.MBR = p.MBR2
		}
	case isa.OpRevMin:
		if p.MBR < p.MBR2 {
			p.MBR2 = p.MBR
		}
	case isa.OpSwapMbrMbr2:
		p.MBR, p.MBR2 = p.MBR2, p.MBR
	case isa.OpMbrNot:
		p.MBR = ^p.MBR
	case isa.OpReturn:
		p.Complete = true
	case isa.OpCRet:
		if p.MBR != 0 {
			p.Complete = true
		}
	case isa.OpCRetI:
		if p.MBR == 0 {
			p.Complete = true
		}
	case isa.OpCJump:
		if p.MBR != 0 {
			p.DisabledUntil = o.operand
		}
	case isa.OpCJumpI:
		if p.MBR == 0 {
			p.DisabledUntil = o.operand
		}
	case isa.OpUJump:
		p.DisabledUntil = o.operand
	case isa.OpMemRead:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, addr)
			return
		}
		p.MBR = o.st.Registers.Read(addr)
		p.MAR++
	case isa.OpMemWrite:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, addr)
			return
		}
		o.st.Registers.Write(addr, p.MBR)
		p.MAR++
	case isa.OpMemIncrement:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, addr)
			return
		}
		p.MBR = o.st.Registers.Add(addr, o.inc)
	case isa.OpMemMinRead:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, addr)
			return
		}
		if v := o.st.Registers.Read(addr); v < p.MBR {
			p.MBR = v
		}
	case isa.OpMemMinReadInc:
		addr := p.MAR
		if addr < o.lo || addr >= o.hi {
			planFault(o, p, addr)
			return
		}
		p.MBR = o.st.Registers.Add(addr, 1)
		if p.MBR < p.MBR2 {
			p.MBR2 = p.MBR
		}
	case isa.OpDrop:
		p.Dropped = true
	case isa.OpSetDst:
		p.DstSet = true
		p.Dst = p.MBR
		if o.egress {
			p.rtsAtEgress = true
		}
	case isa.OpRts:
		p.ToSender = true
		if o.egress {
			p.rtsAtEgress = true
		}
	case isa.OpCRts:
		if p.MBR != 0 {
			p.ToSender = true
			if o.egress {
				p.rtsAtEgress = true
			}
		}
	case isa.OpAddrMask:
		p.MAR &= o.xlate
	case isa.OpAddrOffset:
		p.MAR += o.xlate
	case isa.OpHash:
		p.MAR = FixedHash(o.seed, p.HashData)
	}
	return
}

// planFault applies the memory-protection fault semantics: drop, record the
// address, count ("packets that fail execution are dropped", Section 4.3).
func planFault(o *planOp, p *PHV, addr uint32) {
	o.st.Registers.Faults++
	p.Dropped = true
	p.Faulted = true
	p.FaultAddr = addr
}
