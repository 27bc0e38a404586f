package rmt

import (
	"time"

	"activermt/internal/isa"
)

// NumHashWords is the size of the PHV's hash-metadata field group.
const NumHashWords = 4

// PHV is the packet header vector: all per-packet state an active program
// can touch while its packet traverses the pipeline (Section 3 of the
// paper). RMT's line-rate processing gives each packet an independent PHV,
// which is what provides behavioral isolation between programs.
type PHV struct {
	FID uint16

	// ActiveRMT's three 32-bit variables (Section 3.1).
	MAR  uint32 // memory address register
	MBR  uint32 // memory buffer register / accumulator
	MBR2 uint32 // second accumulator

	// Data holds the argument header's four 32-bit fields.
	Data [4]uint32
	// HashData holds the hash-unit input metadata.
	HashData [NumHashWords]uint32
	// TupleWords is the packet's flattened transport 5-tuple, the source
	// for the COPY_HASHDATA_5TUPLE instruction.
	TupleWords [NumHashWords]uint32

	// Instrs is the parsed program; instruction i executes at logical
	// stage i (recirculating every NumStages instructions). Executed
	// flags are set as stages are traversed so the deparser can shrink
	// the packet.
	Instrs []isa.Instruction

	// Control flags (Section 3.1).
	Complete      bool  // RETURN executed (or program exhausted)
	Dropped       bool  // DROP executed, fault, or recirculation limit hit
	DisabledUntil uint8 // nonzero: skip instructions until this label

	// Forwarding state.
	ToSender  bool   // RTS executed
	DstSet    bool   // SET_DST executed
	Dst       uint32 // destination selected by SET_DST
	IsClone   bool   // created by FORK
	FaultAddr uint32 // address of a protection fault, if Dropped by one
	Faulted   bool

	// Accounting.
	Passes    int           // pipeline passes consumed (>= 1 once executed)
	StagesRun int           // total stage slots traversed
	Latency   time.Duration // modeled forwarding latency

	// Internal execution signals set by actions, consumed by the device.
	forkRequested bool
	forkDstValid  bool
	forkDst       uint32
	rtsAtEgress   bool

	// ctx is the scratch action context reused across instructions, so
	// dispatching an action never heap-allocates (see Device.execute).
	ctx Ctx
}

// Reset returns the PHV to its zero state while keeping the capacity of its
// Instrs slice, so pooled PHVs carry no state between packets but also
// allocate nothing on reuse.
func (p *PHV) Reset() {
	instrs := p.Instrs[:0]
	*p = PHV{Instrs: instrs}
}

// RequestFork asks the device to clone the packet after the current
// instruction (the FORK action).
func (p *PHV) RequestFork() { p.forkRequested = true }

// SetForkDst steers the requested clone to a mirror-session egress port.
func (p *PHV) SetForkDst(port uint32) { p.forkDstValid, p.forkDst = true, port }

// MarkRTSAtEgress records that RTS executed in the egress pipeline, which
// costs a recirculation to change ports.
func (p *PHV) MarkRTSAtEgress() { p.rtsAtEgress = true }

// Clone deep-copies the PHV (for FORK).
func (p *PHV) Clone() *PHV {
	q := *p
	q.Instrs = make([]isa.Instruction, len(p.Instrs))
	copy(q.Instrs, p.Instrs)
	q.IsClone = true
	return &q
}
