package rmt

import (
	"time"

	"activermt/internal/isa"
)

// This file implements specialized capsule execution: a program admitted by
// the decoded-program cache is compiled once — against the tables as they
// stand — into a flattened straight-line plan of resolved operations, so the
// per-packet loop no longer pays for stage dispatch through action closures,
// per-instruction Ctx refills, or table searches for protection and
// translation state. Everything the interpreter resolves per packet from
// control-plane state (physical stage, register array, grant bounds,
// translation mask/offset, hash seed, ingress/egress position, NOP padding)
// is folded in at compile time; only the data-dependent work — register ALU
// ops, hashes, branch predication, recirculation accounting — runs per
// packet.
//
// A Plan is immutable after CompilePlan returns and is only valid while the
// tables it folded are unchanged: the owner (the runtime's plan table)
// remembers the device generation (Device.Gen) it compiled under and
// discards every plan when the generation moves, so a stale plan never
// executes. The interpreter (Device.run) remains the always-correct
// fallback; ExecPlan reproduces its observable semantics bit for bit —
// identical Executed marking, branch skipping, recirculation counts, latency
// model, fault address, and per-stage counters.

// planKind discriminates the three dispatch shapes of a compiled slot.
type planKind uint8

const (
	// pkOp dispatches on the resolved opcode with folded fields.
	pkOp planKind = iota
	// pkCount counts Stage.Executed and does nothing else: NOP slots and
	// translation ops whose FID has no entry in the slot's stage (the
	// interpreter's action runs and finds no entry; the count still lands).
	pkCount
	// pkMiss is an uninstalled opcode (EOF in a malformed body): the
	// interpreter's action table misses, so neither count nor effect.
	pkMiss
)

// planOp is one resolved instruction slot of a compiled plan.
type planOp struct {
	kind    planKind
	op      isa.Opcode
	operand uint8  // folded operand (already reduced mod its field width)
	label   uint8  // branch-target label carried by this slot
	egress  bool   // physical stage is in the egress pipeline
	inc     uint32 // MEM_INCREMENT delta, max(operand,1) folded
	seed    uint32 // HASH seed (selector or stage seed) folded
	lo, hi  uint32 // memory ops: folded protection ∩ array bounds; empty ⇒ always fault
	mask    uint32 // ADDR_MASK folded translation mask
	off     uint32 // ADDR_OFFSET folded translation offset
	// st is the slot's physical stage: its Executed count and register array.
	st *Stage
}

// Plan is a compiled straight-line execution plan for one (FID, program
// version) under one device generation. Immutable after compilation.
type Plan struct {
	ops       []planOp
	numStages int
	maxSlots  int
	passLatNs int64
}

// Len returns the number of instruction slots in the plan.
func (pl *Plan) Len() int { return len(pl.ops) }

// TraceEnabled reports whether a per-instruction trace hook is installed.
// Specialized execution does not emit trace events, so callers must fall
// back to the interpreter while tracing.
func (d *Device) TraceEnabled() bool { return d.trace != nil }

// CompilePlan compiles instrs (already privilege-rewritten by the caller)
// for fid against the current tables. It returns nil when the program cannot
// be specialized — a FORK (clone recursion needs the interpreter) or an
// opcode outside the defined set — in which case the caller executes through
// the interpreter instead.
func (d *Device) CompilePlan(fid uint16, instrs []isa.Instruction) *Plan {
	n := d.cfg.NumStages
	pl := &Plan{
		ops:       make([]planOp, len(instrs)),
		numStages: n,
		maxSlots:  d.cfg.MaxPasses * n,
		passLatNs: d.cfg.PassLatency.Nanoseconds(),
	}
	for idx, in := range instrs {
		if int(in.Op) >= isa.NumOpcodes || in.Op == isa.OpFork {
			return nil
		}
		stage := idx % n
		o := &pl.ops[idx]
		o.op = in.Op
		o.label = in.Label
		o.st = d.stages[stage]
		o.egress = stage >= d.cfg.NumIngress
		if d.actions[in.Op] == nil {
			o.kind = pkMiss
			continue
		}
		o.kind = pkOp
		switch in.Op {
		case isa.OpNop, isa.OpHashdata5Tuple, isa.OpCopyMbr2Mbr, isa.OpCopyMbrMbr2,
			isa.OpCopyMarMbr, isa.OpCopyMbrMar, isa.OpMbrAddMbr2, isa.OpMarAddMbr,
			isa.OpMarAddMbr2, isa.OpMarMbrAddMbr2, isa.OpMbrSubMbr2, isa.OpBitAndMarMbr,
			isa.OpBitOrMbrMbr2, isa.OpMbrEqualsMbr2, isa.OpMax, isa.OpMin, isa.OpRevMin,
			isa.OpSwapMbrMbr2, isa.OpMbrNot, isa.OpReturn, isa.OpCRet, isa.OpCRetI,
			isa.OpDrop, isa.OpRts, isa.OpCRts, isa.OpSetDst:
			if in.Op == isa.OpNop {
				o.kind = pkCount
			}
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
				// folded bounds compare equals Allowed() ∧ InRange() exactly.
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
		case isa.OpAddrMask:
			if t, ok := o.st.TranslateFor(fid); ok {
				o.mask = t.Mask
			} else {
				o.kind = pkCount
			}
		case isa.OpAddrOffset:
			if t, ok := o.st.TranslateFor(fid); ok {
				o.off = t.Offset
			} else {
				o.kind = pkCount
			}
		case isa.OpHash:
			if in.Operand != 0 {
				o.seed = uint32(in.Operand)
			} else {
				o.seed = uint32(stage)*0x9E3779B9 + 1
			}
		default:
			// An opcode without a specialized lowering (none today; new
			// opcodes land here until taught to the compiler): refuse, the
			// interpreter handles it.
			return nil
		}
	}
	return pl
}

// ExecPlan runs one packet through a compiled plan, mirroring Device.run's
// observable semantics exactly: branch skipping, recirculation accounting at
// pass boundaries, the stage-granularity latency model, and the egress-RTS
// extra pass. p.Instrs is not consulted: the plan carries the instruction
// image, and the returned exit index (the number of slots the header
// traversed, before the ≥1 latency clamp) tells the caller which prefix of
// the image the interpreter would have marked Executed — enough to rebuild
// the output capsule without per-slot flag stores.
//
// Plans are compiled only for FORK-free programs, so execution produces
// exactly one output: the PHV itself.
func (d *Device) ExecPlan(pl *Plan, p *PHV) int {
	d.PacketsIn++
	n := pl.numStages
	maxSlots := pl.maxSlots
	nOps := len(pl.ops)
	idx := 0
	for !p.Complete && !p.Dropped {
		if idx >= nOps {
			p.Complete = true
			break
		}
		if idx >= maxSlots {
			p.Dropped = true
			break
		}
		o := &pl.ops[idx]
		if p.DisabledUntil != 0 {
			if o.label == p.DisabledUntil {
				p.DisabledUntil = 0
				execPlanOp(o, p)
			}
		} else {
			execPlanOp(o, p)
		}
		idx++
		if idx%n == 0 && idx < nOps && idx < maxSlots && !p.Complete && !p.Dropped {
			d.Recirculations++
		}
	}

	exit := idx
	slots := idx
	if slots < 1 {
		slots = 1
	}
	if p.rtsAtEgress && !p.Dropped {
		slots += n
		d.Recirculations++
	}
	p.StagesRun = slots
	p.Passes = (slots + n - 1) / n
	p.Latency = time.Duration(int64(slots) * pl.passLatNs / int64(n))
	if d.lat != nil {
		d.lat.Observe(uint64(p.Latency))
	}
	if p.Dropped {
		d.PacketsDropped++
	}
	return exit
}

// execPlanOp executes one resolved slot. The switch mirrors the action
// closures in the runtime's instruction set, with every control-plane lookup
// replaced by the fields folded at compile time.
func execPlanOp(o *planOp, p *PHV) {
	if o.kind == pkMiss {
		return
	}
	o.st.Executed++
	if o.kind == pkCount {
		return
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
		p.MAR &= o.mask
	case isa.OpAddrOffset:
		p.MAR += o.off
	case isa.OpHash:
		p.MAR = FixedHash(o.seed, p.HashData)
	}
}

// planFault applies the memory-protection fault semantics: drop, record the
// address, count — identical to the interpreter's memAction wrapper.
func planFault(o *planOp, p *PHV, addr uint32) {
	o.st.Registers.Faults++
	p.Dropped = true
	p.Faulted = true
	p.FaultAddr = addr
}
