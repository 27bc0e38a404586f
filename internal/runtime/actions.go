// Package runtime implements the ActiveRMT switch runtime: the shared
// "P4 program" that turns a generic RMT device into an active-packet
// interpreter (Section 3 of the paper). It installs one action per opcode in
// every stage, enforces per-FID memory protection through the stage TCAMs,
// applies runtime address translation (ADDR_MASK/ADDR_OFFSET), manages FID
// admission and quarantine state, and converts between active packets and
// PHVs.
package runtime

import (
	"activermt/internal/isa"
	"activermt/internal/rmt"
)

// installActions wires the full instruction set into the device. Every
// opcode is available in every stage (Section 3.1), which is what gives
// programs their mutant flexibility. The runtime receiver supplies the
// control-plane state some actions consult (mirror sessions).
func (r *Runtime) installActions(d *rmt.Device) {
	acts := map[isa.Opcode]rmt.Action{
		isa.OpNop: func(ctx *rmt.Ctx, in isa.Instruction) {},

		// Data copying.
		isa.OpMbrLoad:  func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR = data(ctx, in) },
		isa.OpMbrStore: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.Data[in.Operand%4] = ctx.PHV.MBR },
		isa.OpMbr2Load: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR2 = data(ctx, in) },
		isa.OpMarLoad:  func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MAR = data(ctx, in) },

		isa.OpCopyMbr2Mbr: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR2 = ctx.PHV.MBR },
		isa.OpCopyMbrMbr2: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR = ctx.PHV.MBR2 },
		isa.OpCopyMarMbr:  func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MAR = ctx.PHV.MBR },
		isa.OpCopyMbrMar:  func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR = ctx.PHV.MAR },
		isa.OpCopyHashdataMbr: func(ctx *rmt.Ctx, in isa.Instruction) {
			ctx.PHV.HashData[in.Operand%rmt.NumHashWords] = ctx.PHV.MBR
		},
		isa.OpCopyHashdataMbr2: func(ctx *rmt.Ctx, in isa.Instruction) {
			ctx.PHV.HashData[in.Operand%rmt.NumHashWords] = ctx.PHV.MBR2
		},
		isa.OpHashdata5Tuple: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.HashData = ctx.PHV.TupleWords },

		// Data manipulation.
		isa.OpMbrAddMbr2:    func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR += ctx.PHV.MBR2 },
		isa.OpMarAddMbr:     func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MAR += ctx.PHV.MBR },
		isa.OpMarAddMbr2:    func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MAR += ctx.PHV.MBR2 },
		isa.OpMarMbrAddMbr2: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MAR = ctx.PHV.MBR + ctx.PHV.MBR2 },
		isa.OpMbrSubMbr2:    func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR -= ctx.PHV.MBR2 },
		isa.OpBitAndMarMbr:  func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MAR &= ctx.PHV.MBR },
		isa.OpBitOrMbrMbr2:  func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR |= ctx.PHV.MBR2 },
		isa.OpMbrEqualsMbr2: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR ^= ctx.PHV.MBR2 },
		isa.OpMbrEqualsData: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR ^= data(ctx, in) },
		isa.OpMax: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR2 > ctx.PHV.MBR {
				ctx.PHV.MBR = ctx.PHV.MBR2
			}
		},
		isa.OpMin: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR2 < ctx.PHV.MBR {
				ctx.PHV.MBR = ctx.PHV.MBR2
			}
		},
		isa.OpRevMin: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR < ctx.PHV.MBR2 {
				ctx.PHV.MBR2 = ctx.PHV.MBR
			}
		},
		isa.OpSwapMbrMbr2: func(ctx *rmt.Ctx, in isa.Instruction) {
			ctx.PHV.MBR, ctx.PHV.MBR2 = ctx.PHV.MBR2, ctx.PHV.MBR
		},
		isa.OpMbrNot: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.MBR = ^ctx.PHV.MBR },

		// Control flow.
		isa.OpReturn: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.Complete = true },
		isa.OpCRet: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR != 0 {
				ctx.PHV.Complete = true
			}
		},
		isa.OpCRetI: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR == 0 {
				ctx.PHV.Complete = true
			}
		},
		isa.OpCJump: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR != 0 {
				ctx.PHV.DisabledUntil = in.Operand
			}
		},
		isa.OpCJumpI: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR == 0 {
				ctx.PHV.DisabledUntil = in.Operand
			}
		},
		isa.OpUJump: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.DisabledUntil = in.Operand },

		// Memory access: protection first, then the stateful-ALU
		// micro-program. MEM_READ/MEM_WRITE advance MAR (Section 3.4).
		isa.OpMemRead: memAction(func(ctx *rmt.Ctx, in isa.Instruction, addr uint32) {
			ctx.PHV.MBR = ctx.Stage.Registers.Read(addr)
			ctx.PHV.MAR++
		}),
		isa.OpMemWrite: memAction(func(ctx *rmt.Ctx, in isa.Instruction, addr uint32) {
			ctx.Stage.Registers.Write(addr, ctx.PHV.MBR)
			ctx.PHV.MAR++
		}),
		isa.OpMemIncrement: memAction(func(ctx *rmt.Ctx, in isa.Instruction, addr uint32) {
			inc := uint32(in.Operand)
			if inc == 0 {
				inc = 1
			}
			ctx.PHV.MBR = ctx.Stage.Registers.Add(addr, inc)
		}),
		isa.OpMemMinRead: memAction(func(ctx *rmt.Ctx, in isa.Instruction, addr uint32) {
			v := ctx.Stage.Registers.Read(addr)
			if v < ctx.PHV.MBR {
				ctx.PHV.MBR = v
			}
		}),
		isa.OpMemMinReadInc: memAction(func(ctx *rmt.Ctx, in isa.Instruction, addr uint32) {
			ctx.PHV.MBR = ctx.Stage.Registers.Add(addr, 1)
			if ctx.PHV.MBR < ctx.PHV.MBR2 {
				ctx.PHV.MBR2 = ctx.PHV.MBR
			}
		}),

		// Packet forwarding.
		isa.OpDrop: func(ctx *rmt.Ctx, in isa.Instruction) { ctx.PHV.Dropped = true },
		isa.OpFork: func(ctx *rmt.Ctx, in isa.Instruction) {
			ctx.PHV.RequestFork()
			// A nonzero operand names a mirror session: the clone is
			// steered to the session's egress port if one is installed.
			if in.Operand != 0 {
				if port, ok := r.MirrorSession(ctx.PHV.FID, in.Operand); ok {
					ctx.PHV.SetForkDst(port)
				}
			}
		},
		isa.OpSetDst: func(ctx *rmt.Ctx, in isa.Instruction) {
			ctx.PHV.DstSet = true
			ctx.PHV.Dst = ctx.PHV.MBR
			if ctx.StageIdx >= ctx.Dev.NumIngress() {
				ctx.PHV.MarkRTSAtEgress()
			}
		},
		isa.OpRts: func(ctx *rmt.Ctx, in isa.Instruction) { rts(ctx) },
		isa.OpCRts: func(ctx *rmt.Ctx, in isa.Instruction) {
			if ctx.PHV.MBR != 0 {
				rts(ctx)
			}
		},

		// Address translation and hashing.
		isa.OpAddrMask: func(ctx *rmt.Ctx, in isa.Instruction) {
			if t, ok := ctx.Stage.TranslateFor(ctx.PHV.FID); ok {
				ctx.PHV.MAR &= t.Mask
			}
		},
		isa.OpAddrOffset: func(ctx *rmt.Ctx, in isa.Instruction) {
			if t, ok := ctx.Stage.TranslateFor(ctx.PHV.FID); ok {
				ctx.PHV.MAR += t.Offset
			}
		},
		isa.OpHash: func(ctx *rmt.Ctx, in isa.Instruction) {
			ctx.PHV.MAR = ctx.Dev.Hash(ctx.StageIdx, in.Operand, ctx.PHV.HashData)
		},
	}
	for op, fn := range acts {
		d.SetAction(op, fn)
	}
}

// data reads the operand-selected argument field.
func data(ctx *rmt.Ctx, in isa.Instruction) uint32 {
	return ctx.PHV.Data[in.Operand%4]
}

func rts(ctx *rmt.Ctx) {
	ctx.PHV.ToSender = true
	if ctx.StageIdx >= ctx.Dev.NumIngress() {
		ctx.PHV.MarkRTSAtEgress()
	}
}

// memAction wraps a register micro-program with TCAM protection: a memory
// access whose MAR falls outside the FID's installed region in this stage is
// a fault, and the packet is dropped ("packets that fail execution are
// dropped", Section 4.3).
func memAction(body func(ctx *rmt.Ctx, in isa.Instruction, addr uint32)) rmt.Action {
	return func(ctx *rmt.Ctx, in isa.Instruction) {
		addr := ctx.PHV.MAR
		if !ctx.Stage.Prot.Lookup(ctx.PHV.FID, addr) || !ctx.Stage.Registers.InRange(addr) {
			ctx.Stage.Registers.Faults++
			ctx.PHV.Dropped = true
			ctx.PHV.Faulted = true
			ctx.PHV.FaultAddr = addr
			ctx.PHV.FaultStage = ctx.StageIdx
			ctx.PHV.FaultOwner, ctx.PHV.FaultOwned = ctx.Stage.Prot.OwnerOf(addr)
			return
		}
		body(ctx, in, addr)
	}
}
