// Package packet defines the ActiveRMT wire formats: the 10-byte initial
// active header, the 16-byte argument header, two-byte instruction headers,
// the 24-byte allocation-request header, and the 160-byte
// allocation-response header (Section 3.3 of the paper), plus a minimal
// Ethernet/IPv4/UDP encapsulation used by the simulated network.
//
// Layout choices the paper leaves open (field order, magic value, flag bits)
// are defined here and documented on each type. All multi-byte fields are
// big-endian.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"activermt/internal/isa"
)

// PacketType distinguishes the three kinds of active packets (Section 3.3)
// plus bare control signals.
type PacketType uint8

// Active packet types.
const (
	TypeProgram   PacketType = iota // code + data to execute
	TypeAllocReq                    // allocation request
	TypeAllocResp                   // allocation response (switch -> client)
	TypeControl                     // initial header only (signals)
)

// String names the packet type.
func (t PacketType) String() string {
	switch t {
	case TypeProgram:
		return "program"
	case TypeAllocReq:
		return "alloc-request"
	case TypeAllocResp:
		return "alloc-response"
	case TypeControl:
		return "control"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Flag bits of the initial active header.
const (
	FlagDone     uint16 = 1 << 2 // program marked complete by the switch
	FlagFromSwch uint16 = 1 << 3 // packet originated at the switch
	FlagFailed   uint16 = 1 << 4 // allocation failed / execution fault
	FlagSnapDone uint16 = 1 << 5 // client finished state extraction
	FlagNoShrink uint16 = 1 << 6 // do not strip executed instruction headers
	FlagRealloc  uint16 = 1 << 7 // response describes a reallocation
	FlagRelease  uint16 = 1 << 8 // client releases its allocation
	FlagRTS      uint16 = 1 << 9 // packet was returned to sender
	// FlagPreload asks the parser to preload MAR from data[2] and MBR from
	// data[0] before execution — the compiler optimization of Appendix C
	// that makes first-stage memory addressable without a MAR_LOAD.
	FlagPreload uint16 = 1 << 10
	// FlagMemSync marks a state-extraction program (Appendix C): it
	// executes even while its FID is deactivated for reallocation, so the
	// client can read the consistent snapshot the switch guarantees.
	FlagMemSync uint16 = 1 << 11
	// FlagEvicted marks the control notice the switch sends when the guard
	// evicts a tenant for repeated isolation violations; the client must
	// drop its placement and renegotiate from Idle.
	FlagEvicted uint16 = 1 << 12
	// FlagProbe marks a link-health probe control frame. A switch answers a
	// probe addressed to its own MAC purely in the data plane (echo out the
	// ingress port with FlagFromSwch set), so link liveness is observable
	// even while the target's control plane is crashed. The probe's Opaque
	// word carries the prober's correlation token, echoed untouched.
	FlagProbe uint16 = 1 << 13

	typeMask uint16 = 0x3
)

// Grant-epoch encoding. Every successful grant installation bumps a per-FID
// 7-bit epoch on the switch; allocation responses carry it in the high bits
// of the mutant index, and program packets echo it back in the initial
// header's opaque field. The guard uses the echo to authenticate that a
// capsule's claimed FID really holds the *current* grant — a stale or forged
// epoch cannot address memory reallocated to another tenant.
const (
	// EpochShift positions the epoch above the mutant index proper.
	EpochShift = 24
	// EpochMax is the largest epoch value (7 bits; epochs count 1..127 and
	// wrap back to 1, so 0 always means "no epoch issued").
	EpochMax uint8 = 1<<7 - 1
	// MutantIndexMask isolates the mutant index from a response's opaque
	// field, stripping the epoch bits and PolicyBitLC.
	MutantIndexMask uint32 = 1<<EpochShift - 1
)

// PackEpoch merges a grant epoch into a mutant-index word.
func PackEpoch(mutantIndex uint32, epoch uint8) uint32 {
	return mutantIndex&^(uint32(EpochMax)<<EpochShift) | uint32(epoch&EpochMax)<<EpochShift
}

// EpochOf extracts the grant epoch from a mutant-index word.
func EpochOf(mutantIndex uint32) uint8 {
	return uint8(mutantIndex>>EpochShift) & EpochMax
}

// Magic identifies active packets; it doubles as the layer-2 tag the paper
// describes ("a special VLAN tag").
const Magic uint16 = 0xAC7E

// InitialHeaderSize is the wire size of the initial active header: the paper
// specifies 10 bytes.
const InitialHeaderSize = 10

// ActiveHeader is the initial header present on every active packet.
//
//	bytes 0-1  magic (0xAC7E)
//	bytes 2-3  flags (low two bits: PacketType)
//	bytes 4-5  FID
//	bytes 6-9  opaque (per-type: program seq, request meta, mutant index)
type ActiveHeader struct {
	Flags  uint16
	FID    uint16
	Opaque uint32
}

// Type returns the packet type encoded in the flags.
func (h *ActiveHeader) Type() PacketType { return PacketType(h.Flags & typeMask) }

// SetType sets the packet-type bits in the flags.
func (h *ActiveHeader) SetType(t PacketType) {
	h.Flags = (h.Flags &^ typeMask) | uint16(t)&typeMask
}

func (h *ActiveHeader) encode(dst []byte) {
	binary.BigEndian.PutUint16(dst[0:], Magic)
	binary.BigEndian.PutUint16(dst[2:], h.Flags)
	binary.BigEndian.PutUint16(dst[4:], h.FID)
	binary.BigEndian.PutUint32(dst[6:], h.Opaque)
}

// encodeArgs writes the argument header.
func encodeArgs(dst []byte, args *[NumDataFields]uint32) {
	for i, v := range args {
		binary.BigEndian.PutUint32(dst[4*i:], v)
	}
}

// PatchProgram overwrites, in a program frame EncodeFrame rendered, the
// fields that differ from one send to the next: the destination MAC, the
// initial header and the argument header. An end host renders each program's
// frame once per grant and patches a copy per packet.
func PatchProgram(frame []byte, dst MAC, h ActiveHeader, args *[NumDataFields]uint32) {
	copy(frame, dst[:])
	h.encode(frame[EthHeaderSize:])
	encodeArgs(frame[EthHeaderSize+InitialHeaderSize:], args)
}

func decodeActiveHeader(b []byte) (ActiveHeader, error) {
	var h ActiveHeader
	if len(b) < InitialHeaderSize {
		return h, fmt.Errorf("packet: short active header: %d bytes", len(b))
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrNotActive
	}
	h.Flags = binary.BigEndian.Uint16(b[2:])
	h.FID = binary.BigEndian.Uint16(b[4:])
	h.Opaque = binary.BigEndian.Uint32(b[6:])
	return h, nil
}

// ErrNotActive is returned when decoding bytes that do not begin with the
// active magic; callers use it to pass non-active traffic through untouched.
var ErrNotActive = errors.New("packet: not an active packet")

// NumDataFields is the number of 32-bit data fields in the argument header.
const NumDataFields = 4

// ArgHeaderSize is the wire size of the argument header (four 32-bit data
// fields, per the paper).
const ArgHeaderSize = 4 * NumDataFields

// MaxAccesses is the number of memory-access slots in an allocation request
// (eight three-byte entries, per the paper).
const MaxAccesses = 8

// AllocReqEntrySize and AllocReqSize fix the 24-byte request layout.
const (
	AllocReqEntrySize = 3
	AllocReqSize      = MaxAccesses * AllocReqEntrySize
)

// AccessReq describes one memory access of a program in an allocation
// request:
//
//	byte 0  instruction index of the access in the unmutated program
//	byte 1  demand in blocks (0 = elastic: "as much as possible")
//	byte 2  flags: bit 7 valid, bits 3-6 translate slots, bits 0-2
//	        alignment group (0 = none)
type AccessReq struct {
	Index      uint8 // instruction index in the most-compact program
	Demand     uint8 // blocks; 0 means elastic
	AlignGroup uint8 // accesses sharing a group get identical block ranges
	Translate  uint8 // bit k-1: the slot k before the access translates
}

// MaxTranslateReach is how many slots before its access a translation can
// sit: the four bits an access entry has for them.
const MaxTranslateReach = 4

// AllocRequest describes a program's memory footprint (Section 3.3: program
// length, the stages where it accesses memory, and per-stage demands). The
// program length, the index of the last ingress-bound instruction, and the
// elastic bit travel in the initial header's opaque field:
//
//	opaque byte 0  program length (most-compact mutant)
//	opaque byte 1  1 + index of the last ingress-only instruction (0 = none)
//	opaque byte 2  bit 0: elastic application
//	opaque byte 3  reserved
type AllocRequest struct {
	ProgLen    uint8
	IngressIdx int8 // index of last ingress-only instruction; -1 = none
	Elastic    bool
	Accesses   []AccessReq // at most MaxAccesses
}

func (r *AllocRequest) opaque() uint32 {
	var b [4]byte
	b[0] = r.ProgLen
	if r.IngressIdx >= 0 {
		b[1] = uint8(r.IngressIdx) + 1
	}
	if r.Elastic {
		b[2] = 1
	}
	return binary.BigEndian.Uint32(b[:])
}

// allocRequestFromWire decodes a request into r, reusing its access storage.
func allocRequestFromWire(r *AllocRequest, opaque uint32, b []byte) error {
	if len(b) < AllocReqSize {
		return fmt.Errorf("packet: short allocation request: %d bytes", len(b))
	}
	var ob [4]byte
	binary.BigEndian.PutUint32(ob[:], opaque)
	*r = AllocRequest{ProgLen: ob[0], IngressIdx: int8(ob[1]) - 1, Elastic: ob[2]&1 != 0, Accesses: r.Accesses[:0]}
	for i := 0; i < MaxAccesses; i++ {
		e := b[i*AllocReqEntrySize:]
		if e[2]&0x80 == 0 {
			continue
		}
		r.Accesses = append(r.Accesses, AccessReq{Index: e[0], Demand: e[1], AlignGroup: e[2] & 0x07, Translate: e[2] >> 3 & 0x0f})
	}
	return nil
}

func (r *AllocRequest) encode(dst []byte) error {
	if len(r.Accesses) > MaxAccesses {
		return fmt.Errorf("packet: %d accesses exceed the %d request slots", len(r.Accesses), MaxAccesses)
	}
	for i, a := range r.Accesses {
		e := dst[i*AllocReqEntrySize:]
		e[0] = a.Index
		e[1] = a.Demand
		e[2] = 0x80 | a.Translate&0x0f<<3 | a.AlignGroup&0x07
	}
	return nil
}

// NumStages is the logical pipeline depth the response header is sized for
// (20 eight-byte per-stage entries, per the paper).
const NumStages = 20

// PolicyBitLC is set in an allocation response's mutant index when the
// switch enumerated mutants under the least-constrained policy, so client
// and switch reproduce the same deterministic enumeration order.
const PolicyBitLC uint32 = 1 << 31

// AllocRespEntrySize and AllocRespSize fix the 160-byte response layout.
const (
	AllocRespEntrySize = 8
	AllocRespSize      = NumStages * AllocRespEntrySize
)

// StageGrant is the memory region granted in one stage: word indices
// [Start, End). Start == End means no allocation in that stage.
type StageGrant struct {
	Start uint32
	End   uint32
}

// Empty reports whether the grant is empty.
func (g StageGrant) Empty() bool { return g.Start == g.End }

// AllocResponse communicates the outcome of an allocation: the granted
// region in each of the 20 stages, and (in the initial header's opaque
// field) the index of the mutant the switch selected from the shared,
// deterministic enumeration order.
type AllocResponse struct {
	MutantIndex uint32
	Grants      [NumStages]StageGrant
}

func (r *AllocResponse) encode(dst []byte) {
	for i, g := range r.Grants {
		e := dst[i*AllocRespEntrySize:]
		binary.BigEndian.PutUint32(e[0:], g.Start)
		binary.BigEndian.PutUint32(e[4:], g.End)
	}
}

func allocResponseFromWire(r *AllocResponse, opaque uint32, b []byte) error {
	if len(b) < AllocRespSize {
		return fmt.Errorf("packet: short allocation response: %d bytes", len(b))
	}
	r.MutantIndex = opaque
	for i := 0; i < NumStages; i++ {
		e := b[i*AllocRespEntrySize:]
		r.Grants[i] = StageGrant{
			Start: binary.BigEndian.Uint32(e[0:]),
			End:   binary.BigEndian.Uint32(e[4:]),
		}
	}
	return nil
}

// Active is a fully decoded active packet. Exactly one of Program, AllocReq,
// AllocResp is non-nil depending on Header.Type; Payload carries whatever
// followed the active headers (typically an encapsulated application
// packet).
type Active struct {
	Header    ActiveHeader
	Args      [NumDataFields]uint32 // program packets only
	Program   *isa.Program          // program packets only
	AllocReq  *AllocRequest
	AllocResp *AllocResponse
	Payload   []byte

	// ValidState memoizes the program's structural validation verdict
	// (ProgUnknown/ProgValid/ProgInvalid). The caching decoder stamps it
	// so the ingress guard need not re-walk the program per packet; the
	// plain Decode path leaves it ProgUnknown.
	ValidState uint8
}

// headerLen is the wire size of the active headers Encode writes in front of
// the payload.
func (a *Active) headerLen() int {
	switch a.Header.Type() {
	case TypeProgram:
		n := InitialHeaderSize + ArgHeaderSize
		if a.Program != nil {
			n += (a.Program.Len() + 1) * isa.WireSize // instructions + EOF
		}
		return n
	case TypeAllocReq:
		return InitialHeaderSize + AllocReqSize
	case TypeAllocResp:
		return InitialHeaderSize + AllocRespSize
	}
	return InitialHeaderSize
}

// Encode serializes the active packet (headers followed by payload),
// appending to dst.
func (a *Active) Encode(dst []byte) ([]byte, error) {
	dst, err := a.encodeHeaders(dst)
	if err != nil {
		return nil, err
	}
	return append(dst, a.Payload...), nil
}

// encodeHeaders appends the active headers — everything Encode writes in
// front of the payload (headerLen bytes).
func (a *Active) encodeHeaders(dst []byte) ([]byte, error) {
	h := a.Header
	switch h.Type() {
	case TypeProgram:
		if a.Program == nil {
			return nil, errors.New("packet: program packet without program")
		}
		var hb [InitialHeaderSize + ArgHeaderSize]byte
		h.encode(hb[:])
		encodeArgs(hb[InitialHeaderSize:], &a.Args)
		dst = append(dst, hb[:]...)
		dst = a.Program.Encode(dst)
	case TypeAllocReq:
		if a.AllocReq == nil {
			return nil, errors.New("packet: alloc-request packet without request")
		}
		h.Opaque = a.AllocReq.opaque()
		var hb [InitialHeaderSize + AllocReqSize]byte
		h.encode(hb[:])
		if err := a.AllocReq.encode(hb[InitialHeaderSize:]); err != nil {
			return nil, err
		}
		dst = append(dst, hb[:]...)
	case TypeAllocResp:
		if a.AllocResp == nil {
			return nil, errors.New("packet: alloc-response packet without response")
		}
		h.Opaque = a.AllocResp.MutantIndex
		var hb [InitialHeaderSize + AllocRespSize]byte
		h.encode(hb[:])
		a.AllocResp.encode(hb[InitialHeaderSize:])
		dst = append(dst, hb[:]...)
	case TypeControl:
		var hb [InitialHeaderSize]byte
		h.encode(hb[:])
		dst = append(dst, hb[:]...)
	}
	return dst, nil
}

// Decode parses an active packet from b into a fresh Active that owns its
// payload. It returns ErrNotActive when b does not start with the active
// magic.
func Decode(b []byte) (*Active, error) {
	a := &Active{}
	if err := decodeActive(b, a, nil, false); err != nil {
		return nil, err
	}
	a.Payload = append([]byte(nil), a.Payload...)
	return a, nil
}

// decodeActive parses an active packet from b into a; a.Payload aliases b.
// The instruction headers of a program capsule are decoded through the
// cache c when there is one, stepped over (validated, a.Program left nil)
// when skipProgram is set, and decoded afresh otherwise. An allocation
// request or response decodes into the AllocReq or AllocResp a holds on
// entry (the caller's scratch), or into a fresh one when that is nil.
func decodeActive(b []byte, a *Active, c *ProgCache, skipProgram bool) error {
	h, err := decodeActiveHeader(b)
	if err != nil {
		return err
	}
	req, resp := a.AllocReq, a.AllocResp
	*a = Active{Header: h}
	rest := b[InitialHeaderSize:]
	switch h.Type() {
	case TypeProgram:
		if len(rest) < ArgHeaderSize {
			return fmt.Errorf("packet: short argument header: %d bytes", len(rest))
		}
		for i := range a.Args {
			a.Args[i] = binary.BigEndian.Uint32(rest[4*i:])
		}
		rest = rest[ArgHeaderSize:]
		var n int
		switch {
		case skipProgram:
			n, err = isa.SkipProgram(rest)
		case c != nil:
			a.Program, n, a.ValidState, err = c.lookupOrDecode(rest)
		default:
			a.Program, n, err = isa.DecodeProgram(rest)
		}
		if err != nil {
			return err
		}
		rest = rest[n:]
	case TypeAllocReq:
		if a.AllocReq = req; req == nil {
			a.AllocReq = new(AllocRequest)
		}
		if err := allocRequestFromWire(a.AllocReq, h.Opaque, rest); err != nil {
			return err
		}
		rest = rest[AllocReqSize:]
	case TypeAllocResp:
		if a.AllocResp = resp; resp == nil {
			a.AllocResp = new(AllocResponse)
		}
		if err := allocResponseFromWire(a.AllocResp, h.Opaque, rest); err != nil {
			return err
		}
		rest = rest[AllocRespSize:]
	case TypeControl:
		// Initial header only.
	}
	if len(rest) > 0 {
		a.Payload = rest
	}
	return nil
}
