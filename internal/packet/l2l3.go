package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EtherTypeActive is the layer-2 tag for active frames. The paper uses "a
// special VLAN tag" following the Ethernet header; we use a dedicated
// EtherType for the same purpose.
const EtherTypeActive = 0x88B5 // IEEE local-experimental EtherType

// EtherTypeIPv4 is the standard IPv4 EtherType.
const EtherTypeIPv4 = 0x0800

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the MAC in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EthHeaderSize is the wire size of an Ethernet header.
const EthHeaderSize = 14

// EthHeader is a standard Ethernet II header.
type EthHeader struct {
	Dst, Src  MAC
	EtherType uint16
}

// Encode appends the header's wire form to dst.
func (h *EthHeader) Encode(dst []byte) []byte {
	dst = append(dst, h.Dst[:]...)
	dst = append(dst, h.Src[:]...)
	return binary.BigEndian.AppendUint16(dst, h.EtherType)
}

// DecodeEth parses an Ethernet header and returns it with the remaining
// bytes.
func DecodeEth(b []byte) (EthHeader, []byte, error) {
	var h EthHeader
	if len(b) < EthHeaderSize {
		return h, nil, fmt.Errorf("packet: short ethernet header: %d bytes", len(b))
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return h, b[EthHeaderSize:], nil
}

// IPv4HeaderSize is the wire size of an options-free IPv4 header.
const IPv4HeaderSize = 20

// ProtoUDP and ProtoTCP are IPv4 protocol numbers.
const (
	ProtoUDP = 17
	ProtoTCP = 6
)

// IPv4Header is a minimal options-free IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr // must be 4-byte addresses
}

// Encode appends the header's wire form (with a correct checksum) to dst.
func (h *IPv4Header) Encode(dst []byte) []byte {
	var b [IPv4HeaderSize]byte
	b[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	b[8] = h.TTL
	b[9] = h.Protocol
	src, dst4 := h.Src.As4(), h.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst4[:])
	binary.BigEndian.PutUint16(b[10:], ipChecksum(b[:]))
	return append(dst, b[:]...)
}

// Sentinels: payloads are parsed per packet, and a rejection builds nothing.
var (
	errShortIPv4    = errors.New("packet: short ipv4 header")
	errIPv4Version  = errors.New("packet: unsupported ipv4 version/IHL")
	errIPv4Checksum = errors.New("packet: ipv4 checksum mismatch")
	errShortUDP     = errors.New("packet: short udp header")
)

// DecodeIPv4 parses an options-free IPv4 header, verifying its checksum.
func DecodeIPv4(b []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderSize {
		return h, nil, errShortIPv4
	}
	if b[0] != 0x45 {
		return h, nil, errIPv4Version
	}
	if ipChecksum(b[:IPv4HeaderSize]) != 0 {
		return h, nil, errIPv4Checksum
	}
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = netip.AddrFrom4([4]byte(b[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	return h, b[IPv4HeaderSize:], nil
}

// ipChecksum computes the ones-complement IPv4 header checksum. Called on a
// header whose checksum field is zero it yields the value to store; called
// on a complete header it yields zero iff the stored checksum is correct.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// UDPHeaderSize is the wire size of a UDP header.
const UDPHeaderSize = 8

// UDPHeader is a standard UDP header; the checksum is left zero (legal for
// UDP over IPv4) since the simulated links are loss-free at the bit level.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// Encode appends the header's wire form to dst.
func (h *UDPHeader) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, h.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, h.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, h.Length)
	return binary.BigEndian.AppendUint16(dst, 0)
}

// DecodeUDP parses a UDP header.
func DecodeUDP(b []byte) (UDPHeader, []byte, error) {
	var h UDPHeader
	if len(b) < UDPHeaderSize {
		return h, nil, errShortUDP
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Length = binary.BigEndian.Uint16(b[4:])
	return h, b[UDPHeaderSize:], nil
}

// FiveTuple identifies a transport flow; it feeds the HASHDATA_5TUPLE
// instruction.
type FiveTuple struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Protocol         uint8
}

// Words flattens the tuple into 32-bit words for the switch hash unit.
// Invalid (zero-value) addresses hash as zero.
func (t FiveTuple) Words() []uint32 {
	var s, d [4]byte
	if t.Src.Is4() {
		s = t.Src.As4()
	}
	if t.Dst.Is4() {
		d = t.Dst.As4()
	}
	return []uint32{
		binary.BigEndian.Uint32(s[:]),
		binary.BigEndian.Uint32(d[:]),
		uint32(t.SrcPort)<<16 | uint32(t.DstPort),
		uint32(t.Protocol),
	}
}

// WordsArray is the allocation-free variant of Words, used by the packet
// hot path to fill a PHV's tuple words without a slice allocation.
func (t FiveTuple) WordsArray() [4]uint32 {
	var s, d [4]byte
	if t.Src.Is4() {
		s = t.Src.As4()
	}
	if t.Dst.Is4() {
		d = t.Dst.As4()
	}
	return [4]uint32{
		binary.BigEndian.Uint32(s[:]),
		binary.BigEndian.Uint32(d[:]),
		uint32(t.SrcPort)<<16 | uint32(t.DstPort),
		uint32(t.Protocol),
	}
}

// ParseFiveTuple extracts the 5-tuple from an IPv4/UDP (or TCP-like)
// payload; ok is false for anything else.
func ParseFiveTuple(b []byte) (FiveTuple, bool) {
	ip, rest, err := DecodeIPv4(b)
	if err != nil {
		return FiveTuple{}, false
	}
	t := FiveTuple{Src: ip.Src, Dst: ip.Dst, Protocol: ip.Protocol}
	if ip.Protocol != ProtoUDP && ip.Protocol != ProtoTCP {
		return t, true
	}
	if len(rest) < 4 {
		return FiveTuple{}, false
	}
	t.SrcPort = binary.BigEndian.Uint16(rest[0:])
	t.DstPort = binary.BigEndian.Uint16(rest[2:])
	return t, true
}

// Frame is a full layer-2 frame: an Ethernet header, optionally followed by
// active headers (EtherTypeActive), then the inner payload.
type Frame struct {
	Eth    EthHeader
	Active *Active // nil for plain traffic
	Inner  []byte  // bytes after the Ethernet (and active) headers
}

// EncodeFrame is AppendFrame into a buffer of exactly the frame's wire size.
func EncodeFrame(f *Frame) ([]byte, error) {
	n := EthHeaderSize + len(f.Inner)
	if f.Active != nil {
		n += f.Active.headerLen()
	}
	return AppendFrame(make([]byte, 0, n), f)
}

// AppendFrame appends a frame's wire form to dst: Ethernet header, active
// headers, then Inner. It only reads f — Inner, not Active.Payload, is what
// follows the headers. Senders append into their own scratch; netsim copies
// what it puts on a link.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	out := f.Eth.Encode(dst)
	if f.Active != nil {
		var err error
		if out, err = f.Active.encodeHeaders(out); err != nil {
			return nil, err
		}
	}
	return append(out, f.Inner...), nil
}

// DecodeFrame parses a frame, decoding active headers when present.
func DecodeFrame(b []byte) (*Frame, error) {
	eth, rest, err := DecodeEth(b)
	if err != nil {
		return nil, err
	}
	f := &Frame{Eth: eth}
	if eth.EtherType == EtherTypeActive {
		a, err := Decode(rest)
		if err != nil {
			return nil, err
		}
		f.Active = a
		f.Inner = a.Payload
		return f, nil
	}
	f.Inner = append([]byte(nil), rest...)
	return f, nil
}

// DecodeEndpoint parses a delivered frame into an end host's scratch: f and,
// for an active frame, a (f.Active points at it). It accepts exactly the
// frames DecodeFrame accepts and copies nothing: Inner aliases b, which is
// only read, and the instruction headers of a program capsule are validated
// but not decoded (Program stays nil — an end host reads flags and data
// fields, never code); an allocation message decodes into the AllocReq or
// AllocResp a points at (see DecodeInto). The result is valid until b or the
// scratch is reused.
func DecodeEndpoint(b []byte, f *Frame, a *Active) error {
	eth, rest, err := DecodeEth(b)
	if err != nil {
		return err
	}
	*f = Frame{Eth: eth, Inner: rest}
	if eth.EtherType == EtherTypeActive {
		if err := decodeActive(rest, a, nil, true); err != nil {
			return err
		}
		f.Active, f.Inner = a, a.Payload
	}
	return nil
}
