package rmt

import "time"

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
	Exit      int           // instruction headers traversed: the prefix the deparser may shrink
	Passes    int           // pipeline passes consumed (>= 1 once executed)
	StagesRun int           // total stage slots traversed
	Latency   time.Duration // modeled forwarding latency

	// rtsAtEgress records that RTS or SET_DST executed in the egress
	// pipeline, which costs a recirculation to change ports.
	rtsAtEgress bool
}

// Reset returns the PHV to its zero state, so pooled PHVs carry no state
// between packets.
func (p *PHV) Reset() { *p = PHV{} }
