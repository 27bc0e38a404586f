// Package apps implements the paper's exemplar active services on top of
// the client shim: the full-featured in-network cache of Sections 3.4/6.3
// (query, populate, readback programs plus cache management), the
// frequent-item (heavy-hitter) monitor of Appendix B.1, the Cheetah load
// balancer of Appendix B.2, and the memory-synchronization programs of
// Appendix C. It also provides the plain UDP key-value server the cache
// experiments run against.
package apps

import (
	"encoding/binary"
	"net/netip"

	"activermt/internal/netsim"
	"activermt/internal/packet"
)

// KV message opcodes (the application-level protocol the cache accelerates).
// KVInval never reaches the server: it rides inside a coherence invalidation
// capsule addressed to a cache frontend, and its Seq is the invalidation's
// correlation token — delivery back at the frontend acknowledges that the
// sentinel executed at that frontend's leaf.
const (
	KVGet   = 0x01
	KVPut   = 0x02
	KVResp  = 0x03
	KVInval = 0x04
)

// KVMsg is the application-level key-value message carried in UDP payloads:
// 8-byte keys, 4-byte values (the object sizes of Section 3.4).
type KVMsg struct {
	Op         uint8
	Key0, Key1 uint32
	Value      uint32
	Seq        uint32 // request sequence number for RTT accounting
}

// KVMsgSize is the encoded size.
const KVMsgSize = 1 + 4 + 4 + 4 + 4

// KVPort is the UDP port of the KV service.
const KVPort = 9700

// Encode renders the message.
func (m *KVMsg) Encode() []byte { return m.AppendTo(make([]byte, 0, KVMsgSize)) }

// AppendTo appends the message's wire form to dst.
func (m *KVMsg) AppendTo(dst []byte) []byte {
	dst = append(dst, m.Op)
	dst = binary.BigEndian.AppendUint32(dst, m.Key0)
	dst = binary.BigEndian.AppendUint32(dst, m.Key1)
	dst = binary.BigEndian.AppendUint32(dst, m.Value)
	return binary.BigEndian.AppendUint32(dst, m.Seq)
}

// DecodeKVMsg parses a message.
func DecodeKVMsg(b []byte) (KVMsg, bool) {
	var m KVMsg
	if len(b) < KVMsgSize {
		return m, false
	}
	m.Op = b[0]
	m.Key0 = binary.BigEndian.Uint32(b[1:])
	m.Key1 = binary.BigEndian.Uint32(b[5:])
	m.Value = binary.BigEndian.Uint32(b[9:])
	m.Seq = binary.BigEndian.Uint32(b[13:])
	return m, true
}

// BuildUDP wraps a payload in IPv4+UDP for the simulated network (giving
// active programs a real 5-tuple to hash).
func BuildUDP(src, dst netip.Addr, sport, dport uint16, payload []byte) []byte {
	n := packet.IPv4HeaderSize + packet.UDPHeaderSize + len(payload)
	return append(appendUDPHeaders(make([]byte, 0, n), src, dst, sport, dport, len(payload)), payload...)
}

// BuildKV appends the IPv4+UDP datagram of a KV message to buf, a sender's
// reusable scratch.
func BuildKV(buf []byte, src, dst netip.Addr, sport, dport uint16, m *KVMsg) []byte {
	return m.AppendTo(appendUDPHeaders(buf, src, dst, sport, dport, KVMsgSize))
}

// appendUDPHeaders appends the IPv4+UDP headers of a datagram with n payload
// bytes.
func appendUDPHeaders(buf []byte, src, dst netip.Addr, sport, dport uint16, n int) []byte {
	udp := packet.UDPHeader{SrcPort: sport, DstPort: dport, Length: uint16(packet.UDPHeaderSize + n)}
	ip := packet.IPv4Header{
		TotalLen: uint16(packet.IPv4HeaderSize + packet.UDPHeaderSize + n),
		TTL:      64, Protocol: packet.ProtoUDP,
		Src: src, Dst: dst,
	}
	return udp.Encode(ip.Encode(buf))
}

// ParseUDP unwraps an IPv4+UDP payload.
func ParseUDP(b []byte) (packet.IPv4Header, packet.UDPHeader, []byte, bool) {
	ip, rest, err := packet.DecodeIPv4(b)
	if err != nil || ip.Protocol != packet.ProtoUDP {
		return packet.IPv4Header{}, packet.UDPHeader{}, nil, false
	}
	udp, body, err := packet.DecodeUDP(rest)
	if err != nil {
		return packet.IPv4Header{}, packet.UDPHeader{}, nil, false
	}
	return ip, udp, body, true
}

// ReplyKV decodes the KV message a frame's UDP payload carries (a server
// response, or the request riding back under a switch reply); ok is false
// and the message zero when there is none.
func ReplyKV(f *packet.Frame) (KVMsg, bool) {
	_, _, body, ok := ParseUDP(f.Inner)
	if !ok {
		return KVMsg{}, false
	}
	return DecodeKVMsg(body)
}

// KVServer is a plain UDP key-value server: the backend the in-network
// cache offloads. It answers GETs from its object store and acknowledges
// PUTs.
type KVServer struct {
	eng  *netsim.Engine
	port *netsim.Port
	mac  packet.MAC
	ip   netip.Addr

	// Receive decodes into rx and rxAct (fields, not locals: the Frame points
	// at the Active, which would move a local to the heap per frame).
	rx    packet.Frame
	rxAct packet.Active
	tx    []byte // the reply being sent; the port copies it

	Store map[uint64]uint32

	// Requests counts GETs served (cache misses reaching the server).
	Requests, Puts uint64
}

// NewKVServer returns a server with an empty store.
func NewKVServer(eng *netsim.Engine, mac packet.MAC, ip netip.Addr) *KVServer {
	return &KVServer{eng: eng, mac: mac, ip: ip, Store: make(map[uint64]uint32)}
}

// Attach wires the server NIC.
func (s *KVServer) Attach(p *netsim.Port) { s.port = p }

// MAC returns the server's address.
func (s *KVServer) MAC() packet.MAC { return s.mac }

// IP returns the server's IP address.
func (s *KVServer) IP() netip.Addr { return s.ip }

// SeedObjects stores n objects under deterministic keys and returns the keys,
// and the first half of them as populate-ready hot objects.
func (s *KVServer) SeedObjects(n int) (keys [][2]uint32, hot []KVMsg) {
	keys = make([][2]uint32, n)
	for i := range keys {
		k0, k1, v := uint32(i)*2654435761, uint32(i)*2246822519+7, uint32(0xC0DE+i)
		keys[i] = [2]uint32{k0, k1}
		s.Store[KeyOf(k0, k1)] = v
		if i < n/2 {
			hot = append(hot, KVMsg{Key0: k0, Key1: k1, Value: v})
		}
	}
	return keys, hot
}

// KeyOf packs a key pair.
func KeyOf(k0, k1 uint32) uint64 { return uint64(k0)<<32 | uint64(k1) }

// Receive implements netsim.Endpoint: answer KV requests. Both plain frames
// and active frames that carried a (missed) query reach here; active
// headers are ignored — the server operates on the TCP/IP payload, exactly
// as the paper prescribes (active programs never touch payloads).
func (s *KVServer) Receive(frame []byte, port *netsim.Port) {
	f := &s.rx
	if packet.DecodeEndpoint(frame, f, &s.rxAct) != nil {
		return
	}
	ip, udp, body, ok := ParseUDP(f.Inner)
	if !ok || udp.DstPort != KVPort {
		return
	}
	msg, ok := DecodeKVMsg(body)
	if !ok {
		return
	}
	var resp KVMsg
	switch msg.Op {
	case KVGet:
		s.Requests++
		resp = KVMsg{Op: KVResp, Key0: msg.Key0, Key1: msg.Key1, Value: s.Store[KeyOf(msg.Key0, msg.Key1)], Seq: msg.Seq}
	case KVPut:
		s.Puts++
		s.Store[KeyOf(msg.Key0, msg.Key1)] = msg.Value
		resp = KVMsg{Op: KVResp, Key0: msg.Key0, Key1: msg.Key1, Value: msg.Value, Seq: msg.Seq}
	default:
		return
	}
	eth := packet.EthHeader{Dst: f.Eth.Src, Src: s.mac, EtherType: packet.EtherTypeIPv4}
	s.tx = BuildKV(eth.Encode(s.tx[:0]), s.ip, ip.Src, KVPort, udp.SrcPort, &resp)
	// The reply is an engine event even with no service time: event order
	// depends on it.
	s.port.SendAfter(0, s.tx)
}
