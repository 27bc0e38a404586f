package packet

import (
	"bytes"
	"reflect"
	"testing"

	"activermt/internal/isa"
)

// FuzzDecode drives the active-packet parser with arbitrary bytes; the
// invariant is no panic and, for successfully decoded program packets, a
// clean re-encode.
func FuzzDecode(f *testing.F) {
	a := &Active{Header: ActiveHeader{FID: 1}}
	a.Header.SetType(TypeControl)
	seed, _ := a.Encode(nil)
	f.Add(seed)
	f.Add([]byte{0xAC, 0x7E, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Decode(b)
		if err != nil {
			return
		}
		if got.Header.Type() == TypeProgram {
			if _, err := got.Encode(nil); err != nil {
				t.Fatalf("decoded packet failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzParseActive is the capsule-guard hardening target: it seeds the
// corpus with well-formed capsules of every packet type plus adversarial
// shapes (truncations at every header boundary, garbage instruction
// streams, oversized argument regions) and checks the full parse contract:
// no panic, no read past the input, and decode(encode(decode(b))) is a
// fixed point for program capsules.
func FuzzParseActive(f *testing.F) {
	// One well-formed capsule per type.
	prog := &Active{
		Header:  ActiveHeader{FID: 7, Opaque: 0x01000000},
		Args:    [NumDataFields]uint32{1, 2, 3, 4},
		Program: &isa.Program{Instrs: []isa.Instruction{{Op: isa.OpMarLoad, Operand: 2}, {Op: isa.OpMemWrite}}},
	}
	prog.Header.SetType(TypeProgram)
	progWire, _ := prog.Encode(nil)
	f.Add(progWire)

	req := &Active{Header: ActiveHeader{FID: 7}, AllocReq: &AllocRequest{
		ProgLen: 11, IngressIdx: 2, Elastic: true,
		Accesses: []AccessReq{{Index: 1, Demand: 0, AlignGroup: 1}, {Index: 4, Demand: 2}},
	}}
	req.Header.SetType(TypeAllocReq)
	reqWire, _ := req.Encode(nil)
	f.Add(reqWire)

	resp := &Active{Header: ActiveHeader{FID: 7}, AllocResp: &AllocResponse{MutantIndex: PackEpoch(5, 3)}}
	resp.Header.SetType(TypeAllocResp)
	resp.AllocResp.Grants[1] = StageGrant{Start: 128, End: 256}
	respWire, _ := resp.Encode(nil)
	f.Add(respWire)

	ctl := &Active{Header: ActiveHeader{FID: 7, Flags: FlagFromSwch | FlagEvicted}}
	ctl.Header.SetType(TypeControl)
	ctlWire, _ := ctl.Encode(nil)
	f.Add(ctlWire)

	// Adversarial shapes: every truncation of a program capsule, garbage
	// after the arg header, an instruction stream with no EOF.
	for cut := 0; cut < len(progWire); cut += 3 {
		f.Add(progWire[:cut])
	}
	f.Add(append(progWire[:InitialHeaderSize+ArgHeaderSize], 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(append([]byte(nil), progWire[:len(progWire)-2]...)) // EOF stripped

	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := Decode(b)
		if err != nil {
			return
		}
		wire, err := a.Encode(nil)
		if err != nil {
			t.Fatalf("decoded capsule failed to re-encode: %v", err)
		}
		if len(wire) > len(b) {
			t.Fatalf("re-encode grew %d -> %d bytes", len(b), len(wire))
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded capsule failed to decode: %v", err)
		}
		if back.Header != a.Header && a.Header.Type() == TypeProgram {
			t.Fatalf("program header changed: %+v -> %+v", a.Header, back.Header)
		}
		if a.Header.Type() == TypeProgram {
			// The guard validates what the parser accepts; neither may
			// panic on the other's output.
			_ = a.Program.Validate()
			if !bytes.Equal(a.Program.Encode(nil), back.Program.Encode(nil)) {
				t.Fatal("program bytes not a round-trip fixed point")
			}
		}
	})
}

// FuzzDecodeFrame covers the layer-2 path and holds the end hosts' scratch
// decode to it: DecodeEndpoint accepts exactly the frames DecodeFrame
// accepts and reads the same Ethernet header, active headers, data fields,
// allocation headers and inner bytes out of them.
func FuzzDecodeFrame(f *testing.F) {
	plain := EthHeader{EtherType: EtherTypeIPv4}
	f.Add(append(plain.Encode(nil), 1, 2, 3))
	eth := EthHeader{Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeActive}
	prog := &Active{
		Header:  ActiveHeader{FID: 7, Flags: FlagRTS, Opaque: 3},
		Args:    [NumDataFields]uint32{1, 2, 3, 4},
		Program: &isa.Program{Instrs: []isa.Instruction{{Op: isa.OpMarLoad, Operand: 2}, {Op: isa.OpMemWrite}}},
	}
	prog.Header.SetType(TypeProgram)
	progWire, _ := EncodeFrame(&Frame{Eth: eth, Active: prog, Inner: []byte("inner")})
	f.Add(progWire)
	for cut := 0; cut < len(progWire); cut += 3 { // short headers, truncated program
		f.Add(progWire[:cut])
	}
	noEOF := append([]byte(nil), progWire[:len(progWire)-len("inner")-isa.WireSize]...)
	f.Add(noEOF)
	badOp := append([]byte(nil), progWire...)
	badOp[EthHeaderSize+InitialHeaderSize+ArgHeaderSize] = 0xFF
	f.Add(badOp)
	badMagic := append([]byte(nil), progWire...)
	badMagic[EthHeaderSize] ^= 0xFF
	f.Add(badMagic)
	req := &Active{Header: ActiveHeader{FID: 7}, AllocReq: &AllocRequest{ProgLen: 11, IngressIdx: 2, Accesses: []AccessReq{{Index: 1, AlignGroup: 1}}}}
	req.Header.SetType(TypeAllocReq)
	resp := &Active{Header: ActiveHeader{FID: 7}, AllocResp: &AllocResponse{MutantIndex: PackEpoch(5, 3)}}
	resp.Header.SetType(TypeAllocResp)
	resp.AllocResp.Grants[1] = StageGrant{Start: 128, End: 256}
	for _, a := range []*Active{req, resp} {
		w, _ := EncodeFrame(&Frame{Eth: eth, Active: a})
		f.Add(w)
		f.Add(w[:len(w)-1]) // short allocation header
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := DecodeFrame(b)
		var got Frame
		var act Active
		gotErr := DecodeEndpoint(b, &got, &act)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeEndpoint error %v, DecodeFrame error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.Eth != want.Eth || !bytes.Equal(got.Inner, want.Inner) || (got.Active == nil) != (want.Active == nil) {
			t.Fatalf("frame differs: %+v vs %+v", got, want)
		}
		if want.Active == nil {
			return
		}
		g, w := got.Active, want.Active
		if g.Header != w.Header || g.Args != w.Args || g.Program != nil ||
			!reflect.DeepEqual(g.AllocReq, w.AllocReq) || !reflect.DeepEqual(g.AllocResp, w.AllocResp) {
			t.Fatalf("active headers differ: %+v vs %+v", g, w)
		}
	})
}
