package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"activermt/internal/isa"
)

func sampleProgram(t *testing.T) *isa.Program {
	t.Helper()
	return isa.MustAssemble("sample", `
MAR_LOAD 2
MEM_READ
MBR_EQUALS_DATA_1
CRET
RTS
RETURN
`)
}

func TestProgramPacketRoundTrip(t *testing.T) {
	a := &Active{
		Header:  ActiveHeader{FID: 42, Opaque: 7},
		Args:    [NumDataFields]uint32{0xDEADBEEF, 2, 3, 4},
		Program: sampleProgram(t),
		Payload: []byte("inner payload"),
	}
	a.Header.SetType(TypeProgram)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != a.Header {
		t.Errorf("header %+v, want %+v", got.Header, a.Header)
	}
	if got.Args != a.Args {
		t.Errorf("args %v, want %v", got.Args, a.Args)
	}
	if got.Program.Len() != a.Program.Len() {
		t.Fatalf("program length %d, want %d", got.Program.Len(), a.Program.Len())
	}
	for i := range a.Program.Instrs {
		if got.Program.Instrs[i] != a.Program.Instrs[i] {
			t.Errorf("instr %d: %v != %v", i, got.Program.Instrs[i], a.Program.Instrs[i])
		}
	}
	if !bytes.Equal(got.Payload, a.Payload) {
		t.Errorf("payload %q, want %q", got.Payload, a.Payload)
	}
}

func TestAllocRequestRoundTrip(t *testing.T) {
	req := &AllocRequest{
		ProgLen:    11,
		IngressIdx: 7,
		Elastic:    true,
		Accesses: []AccessReq{
			{Index: 1, Demand: 0, AlignGroup: 1, Translate: 0b0001},
			{Index: 4, Demand: 0, AlignGroup: 1, Translate: 0b1010},
			{Index: 8, Demand: 0, AlignGroup: 7, Translate: 0b1111},
		},
	}
	a := &Active{Header: ActiveHeader{FID: 9}, AllocReq: req}
	a.Header.SetType(TypeAllocReq)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := InitialHeaderSize + AllocReqSize; len(wire) != want {
		t.Errorf("wire size %d, want %d", len(wire), want)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	r := got.AllocReq
	if r == nil {
		t.Fatal("no request decoded")
	}
	if r.ProgLen != 11 || r.IngressIdx != 7 || !r.Elastic {
		t.Errorf("meta = %+v", r)
	}
	if len(r.Accesses) != 3 {
		t.Fatalf("accesses = %v", r.Accesses)
	}
	for i, want := range req.Accesses {
		if r.Accesses[i] != want {
			t.Errorf("access %d = %+v, want %+v", i, r.Accesses[i], want)
		}
	}
}

func TestAllocRequestNoIngressConstraint(t *testing.T) {
	req := &AllocRequest{ProgLen: 5, IngressIdx: -1}
	a := &Active{AllocReq: req}
	a.Header.SetType(TypeAllocReq)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.AllocReq.IngressIdx != -1 {
		t.Errorf("IngressIdx = %d, want -1", got.AllocReq.IngressIdx)
	}
	if len(got.AllocReq.Accesses) != 0 {
		t.Errorf("spurious accesses: %v", got.AllocReq.Accesses)
	}
}

func TestAllocRequestTooManyAccesses(t *testing.T) {
	req := &AllocRequest{Accesses: make([]AccessReq, MaxAccesses+1)}
	a := &Active{AllocReq: req}
	a.Header.SetType(TypeAllocReq)
	if _, err := a.Encode(nil); err == nil {
		t.Error("encode accepted more than MaxAccesses accesses")
	}
}

func TestAllocResponseRoundTrip(t *testing.T) {
	resp := &AllocResponse{MutantIndex: 12}
	resp.Grants[2] = StageGrant{Start: 0, End: 256}
	resp.Grants[5] = StageGrant{Start: 512, End: 1024}
	resp.Grants[19] = StageGrant{Start: 94000, End: 94208}
	a := &Active{Header: ActiveHeader{FID: 3, Flags: FlagFromSwch}, AllocResp: resp}
	a.Header.SetType(TypeAllocResp)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := InitialHeaderSize + AllocRespSize; len(wire) != want {
		t.Errorf("wire size %d, want %d (paper: 160-byte response headers)", len(wire), want)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.AllocResp.MutantIndex != 12 {
		t.Errorf("mutant index = %d", got.AllocResp.MutantIndex)
	}
	if got.AllocResp.Grants != resp.Grants {
		t.Errorf("grants mismatch")
	}
	if !got.AllocResp.Grants[0].Empty() || got.AllocResp.Grants[5].Empty() {
		t.Error("Empty() misbehaves")
	}
	if g := got.AllocResp.Grants[5]; g.End-g.Start != 512 {
		t.Errorf("grant 5 spans %d words, want 512", g.End-g.Start)
	}
}

func TestControlPacket(t *testing.T) {
	a := &Active{Header: ActiveHeader{FID: 77, Flags: FlagSnapDone}}
	a.Header.SetType(TypeControl)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != InitialHeaderSize {
		t.Errorf("control packet size %d, want %d", len(wire), InitialHeaderSize)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.FID != 77 || got.Header.Flags&FlagSnapDone == 0 {
		t.Errorf("header = %+v", got.Header)
	}
	if got.Header.Type() != TypeControl {
		t.Errorf("type = %v", got.Header.Type())
	}
}

func TestDecodeRejectsNonActive(t *testing.T) {
	if _, err := Decode([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != ErrNotActive {
		t.Errorf("err = %v, want ErrNotActive", err)
	}
	if _, err := Decode([]byte{0xAC}); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	a := &Active{Header: ActiveHeader{FID: 1}, Program: sampleProgram(t)}
	a.Header.SetType(TypeProgram)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{InitialHeaderSize - 1, InitialHeaderSize + 3, len(wire) - 3} {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestPacketTypeString(t *testing.T) {
	for ty, want := range map[PacketType]string{
		TypeProgram: "program", TypeAllocReq: "alloc-request",
		TypeAllocResp: "alloc-response", TypeControl: "control",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
}

func TestHeaderTypeBits(t *testing.T) {
	var h ActiveHeader
	h.Flags = FlagDone | FlagFailed
	h.SetType(TypeAllocResp)
	if h.Type() != TypeAllocResp {
		t.Errorf("type = %v", h.Type())
	}
	if h.Flags&FlagDone == 0 || h.Flags&FlagFailed == 0 {
		t.Error("SetType clobbered other flags")
	}
	h.SetType(TypeProgram)
	if h.Type() != TypeProgram {
		t.Errorf("type = %v after reset", h.Type())
	}
}

func TestEthRoundTrip(t *testing.T) {
	h := EthHeader{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{0xa, 0xb, 0xc, 0xd, 0xe, 0xf}, EtherType: EtherTypeActive}
	wire := h.Encode(nil)
	got, rest, err := DecodeEth(append(wire, 0xEE))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header %+v, want %+v", got, h)
	}
	if len(rest) != 1 || rest[0] != 0xEE {
		t.Errorf("rest = %v", rest)
	}
	if _, _, err := DecodeEth(wire[:10]); err == nil {
		t.Error("short ethernet accepted")
	}
	if h.Src.String() != "0a:0b:0c:0d:0e:0f" {
		t.Errorf("MAC string = %s", h.Src)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4Header{
		TotalLen: 100, TTL: 64, Protocol: ProtoUDP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
	}
	wire := h.Encode(nil)
	got, _, err := DecodeIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header %+v, want %+v", got, h)
	}
	// Corrupt a byte: checksum must catch it.
	wire[15] ^= 0xFF
	if _, _, err := DecodeIPv4(wire); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 1234, DstPort: 5678, Length: 42}
	wire := h.Encode(nil)
	got, _, err := DecodeUDP(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header %+v, want %+v", got, h)
	}
	if _, _, err := DecodeUDP(wire[:4]); err == nil {
		t.Error("short udp accepted")
	}
}

// TestHeaderRejectionsDoNotAllocate: the layer-3 and layer-4 decoders reject
// with sentinels, so a payload that is not an IPv4/UDP datagram costs no
// allocation on the packet path.
func TestHeaderRejectionsDoNotAllocate(t *testing.T) {
	ip := IPv4Header{TTL: 64, Protocol: ProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	good := ip.Encode(nil)
	badVersion := append([]byte{0x46}, good[1:]...)
	badSum := slices.Clone(good)
	badSum[15] ^= 0xFF
	for _, c := range []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, errShortIPv4},
		{"short", good[:10], errShortIPv4},
		{"version", badVersion, errIPv4Version},
		{"checksum", badSum, errIPv4Checksum},
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { _, _, err = DecodeIPv4(c.b) }); n != 0 {
			t.Errorf("DecodeIPv4 %s: %v allocs, want 0", c.name, n)
		}
		if !errors.Is(err, c.want) {
			t.Errorf("DecodeIPv4 %s: error %v, want %v", c.name, err, c.want)
		}
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, _, err = DecodeUDP(good[:4]) }); n != 0 || !errors.Is(err, errShortUDP) {
		t.Errorf("DecodeUDP short: %v allocs, error %v; want 0, %v", n, err, errShortUDP)
	}
}

func TestParseFiveTuple(t *testing.T) {
	ip := IPv4Header{
		TotalLen: IPv4HeaderSize + UDPHeaderSize, TTL: 64, Protocol: ProtoUDP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
	}
	udp := UDPHeader{SrcPort: 111, DstPort: 222, Length: UDPHeaderSize}
	b := udp.Encode(ip.Encode(nil))
	tup, ok := ParseFiveTuple(b)
	if !ok {
		t.Fatal("5-tuple not parsed")
	}
	if tup.SrcPort != 111 || tup.DstPort != 222 || tup.Protocol != ProtoUDP {
		t.Errorf("tuple = %+v", tup)
	}
	if len(tup.Words()) != 4 {
		t.Errorf("words = %v", tup.Words())
	}
	if _, ok := ParseFiveTuple([]byte{1, 2, 3}); ok {
		t.Error("junk accepted as 5-tuple")
	}
}

func TestFrameRoundTripActive(t *testing.T) {
	a := &Active{Header: ActiveHeader{FID: 5}, Program: sampleProgram(t)}
	a.Header.SetType(TypeProgram)
	f := &Frame{
		Eth:    EthHeader{Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeActive},
		Active: a,
		Inner:  []byte("app data"),
	}
	wire, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Active == nil || got.Active.Header.FID != 5 {
		t.Fatalf("active header lost: %+v", got.Active)
	}
	if !bytes.Equal(got.Inner, f.Inner) {
		t.Errorf("inner = %q, want %q", got.Inner, f.Inner)
	}
}

func TestFrameRoundTripPlain(t *testing.T) {
	f := &Frame{
		Eth:   EthHeader{EtherType: EtherTypeIPv4},
		Inner: []byte{0xDE, 0xAD},
	}
	wire, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Active != nil {
		t.Error("plain frame decoded as active")
	}
	if !bytes.Equal(got.Inner, f.Inner) {
		t.Errorf("inner = %v, want %v", got.Inner, f.Inner)
	}
}

// TestEncodeFrameDoesNotMutate: EncodeFrame only reads its argument. Inner is
// what follows the active headers; the caller's Active.Payload is neither
// emitted nor overwritten.
func TestEncodeFrameDoesNotMutate(t *testing.T) {
	payload := []byte("kept")
	a := &Active{Header: ActiveHeader{FID: 5}, Program: sampleProgram(t), Payload: payload}
	a.Header.SetType(TypeProgram)
	withInner, err := EncodeFrame(&Frame{Eth: EthHeader{EtherType: EtherTypeActive}, Active: a, Inner: []byte("inner")})
	if err != nil {
		t.Fatal(err)
	}
	noInner, err := EncodeFrame(&Frame{Eth: EthHeader{EtherType: EtherTypeActive}, Active: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Payload) != len(payload) || &a.Payload[0] != &payload[0] {
		t.Errorf("EncodeFrame wrote through its argument: payload %q -> %q", payload, a.Payload)
	}
	if !bytes.HasSuffix(withInner, []byte("inner")) || !bytes.Equal(withInner[:len(noInner)], noInner) {
		t.Errorf("frames differ beyond Inner:\n%x\n%x", withInner, noInner)
	}
	if len(noInner) != EthHeaderSize+a.headerLen() {
		t.Errorf("frame without Inner is %d bytes, want the headers' %d", len(noInner), EthHeaderSize+a.headerLen())
	}
}

// TestEncodeFrameExactSize: EncodeFrame is the exact-size wrapper for callers
// that keep the bytes, so it sizes its buffer from the frame — no slack, no
// regrowth — for every packet type; AppendFrame, which senders call with
// their scratch, appends the same bytes behind what dst holds and, with room
// in dst, allocates nothing.
func TestEncodeFrameExactSize(t *testing.T) {
	prog := &Active{Program: sampleProgram(t)}
	prog.Header.SetType(TypeProgram)
	req := &Active{AllocReq: &AllocRequest{ProgLen: 5, Accesses: []AccessReq{{Index: 2, Demand: 1}}}}
	req.Header.SetType(TypeAllocReq)
	resp := &Active{AllocResp: &AllocResponse{}}
	resp.Header.SetType(TypeAllocResp)
	ctl := &Active{}
	ctl.Header.SetType(TypeControl)
	for _, a := range []*Active{prog, req, resp, ctl, nil} {
		for _, inner := range [][]byte{nil, bytes.Repeat([]byte{7}, 300)} {
			f := &Frame{Eth: EthHeader{EtherType: EtherTypeActive}, Active: a, Inner: inner}
			if a == nil {
				f.Eth.EtherType = EtherTypeIPv4
			}
			wire, err := EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(wire) != cap(wire) {
				t.Errorf("active=%v inner=%d: len %d, cap %d", a != nil, len(inner), len(wire), cap(wire))
			}
			if n := testing.AllocsPerRun(10, func() { _, _ = EncodeFrame(f) }); n != 1 {
				t.Errorf("active=%v inner=%d: %v allocs, want 1", a != nil, len(inner), n)
			}
			scratch := append(make([]byte, 0, 1+len(wire)), 0xAA)
			app, err := AppendFrame(scratch, f)
			if err != nil || app[0] != 0xAA || !bytes.Equal(app[1:], wire) {
				t.Errorf("active=%v inner=%d: AppendFrame wrote %x, want aa%x", a != nil, len(inner), app, wire)
			}
			if n := testing.AllocsPerRun(10, func() { _, _ = AppendFrame(scratch[:1], f) }); n != 0 {
				t.Errorf("active=%v inner=%d: AppendFrame into scratch: %v allocs, want 0", a != nil, len(inner), n)
			}
		}
	}
}

func TestGrantRoundTripProperty(t *testing.T) {
	f := func(mutant uint32, starts, sizes [NumStages]uint16) bool {
		resp := &AllocResponse{MutantIndex: mutant}
		for i := range resp.Grants {
			resp.Grants[i] = StageGrant{Start: uint32(starts[i]), End: uint32(starts[i]) + uint32(sizes[i])}
		}
		a := &Active{AllocResp: resp}
		a.Header.SetType(TypeAllocResp)
		wire, err := a.Encode(nil)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.AllocResp.MutantIndex == mutant && got.AllocResp.Grants == resp.Grants
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsOnJunk(t *testing.T) {
	// Robustness: arbitrary bytes (with and without a valid magic) must
	// decode to an error or a packet — never panic or over-read.
	f := func(body []byte, withMagic bool) bool {
		b := body
		if withMagic && len(b) >= 2 {
			binary.BigEndian.PutUint16(b, Magic)
		}
		_, err := Decode(b)
		_ = err
		_, err = DecodeFrame(b)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFrameJunkEtherTypes(t *testing.T) {
	// A frame claiming the active EtherType but carrying junk must error
	// cleanly.
	eth := EthHeader{EtherType: EtherTypeActive}
	wire := append(eth.Encode(nil), 0xDE, 0xAD, 0xBE)
	if _, err := DecodeFrame(wire); err == nil {
		t.Error("junk active frame accepted")
	}
}

func TestProgramPacketWithAllInstructionHeaderBits(t *testing.T) {
	// Executed flags and labels survive the wire (NoShrink replies carry
	// them back to the client).
	prog := &isa.Program{Instrs: []isa.Instruction{
		{Op: isa.OpNop, Executed: true},
		{Op: isa.OpCJump, Operand: 3},
		{Op: isa.OpMbrNot, Label: 3, Executed: true},
	}}
	a := &Active{Header: ActiveHeader{FID: 2, Flags: FlagNoShrink}, Program: prog}
	a.Header.SetType(TypeProgram)
	wire, err := a.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Instrs {
		if got.Program.Instrs[i] != prog.Instrs[i] {
			t.Errorf("instr %d: %+v != %+v", i, got.Program.Instrs[i], prog.Instrs[i])
		}
	}
}
