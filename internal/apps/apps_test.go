package apps

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"activermt/internal/alloc"
	"activermt/internal/netsim"
	"activermt/internal/packet"
)

func TestKVMsgRoundTrip(t *testing.T) {
	m := KVMsg{Op: KVGet, Key0: 1, Key1: 2, Value: 3, Seq: 4}
	got, ok := DecodeKVMsg(m.Encode())
	if !ok || got != m {
		t.Fatalf("round trip: %+v", got)
	}
	if _, ok := DecodeKVMsg([]byte{1, 2}); ok {
		t.Error("short message accepted")
	}
}

func TestKVMsgProperty(t *testing.T) {
	f := func(op uint8, k0, k1, v, seq uint32) bool {
		m := KVMsg{Op: op, Key0: k0, Key1: k1, Value: v, Seq: seq}
		got, ok := DecodeKVMsg(m.Encode())
		return ok && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildParseUDP(t *testing.T) {
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	payload := BuildUDP(src, dst, 111, KVPort, []byte("hello"))
	ip, udp, body, ok := ParseUDP(payload)
	if !ok {
		t.Fatal("parse failed")
	}
	if ip.Src != src || ip.Dst != dst || udp.SrcPort != 111 || udp.DstPort != KVPort {
		t.Errorf("headers: %+v %+v", ip, udp)
	}
	if string(body) != "hello" {
		t.Errorf("body = %q", body)
	}
	if _, _, _, ok := ParseUDP([]byte{1, 2, 3}); ok {
		t.Error("junk parsed")
	}
}

func TestKVServerServesAndStores(t *testing.T) {
	eng := netsim.NewEngine()
	srv := NewKVServer(eng, packet.MAC{0xB}, netip.MustParseAddr("10.0.9.9"))
	sink := &frameSink{}
	_, sp := netsim.Connect(eng, sink, 0, srv, 0, 0, 0)
	srv.Attach(sp)

	// PUT then GET through raw frames.
	put := KVMsg{Op: KVPut, Key0: 7, Key1: 8, Value: 99, Seq: 1}
	sendTo(t, eng, srv, put, packet.MAC{0xA})
	get := KVMsg{Op: KVGet, Key0: 7, Key1: 8, Seq: 2}
	sendTo(t, eng, srv, get, packet.MAC{0xA})
	eng.Run()

	if srv.Puts != 1 || srv.Requests != 1 {
		t.Errorf("puts=%d gets=%d", srv.Puts, srv.Requests)
	}
	if len(sink.msgs) != 2 {
		t.Fatalf("replies = %d", len(sink.msgs))
	}
	if sink.msgs[1].Value != 99 || sink.msgs[1].Seq != 2 {
		t.Errorf("GET reply: %+v", sink.msgs[1])
	}
	if srv.Store[KeyOf(7, 8)] != 99 {
		t.Error("store not updated")
	}
}

type discard struct{}

func (discard) Receive([]byte, *netsim.Port) {}

// TestKVServerReceiveAllocs: serving a request — plain, or a missed query
// still wrapped in its active headers — builds the reply in the server's
// scratch and allocates nothing (the engine's arena takes a slab per few
// hundred replies, below AllocsPerRun's whole-allocation resolution); a
// payload-less preload capsule, as the coherent cache's warm-up sends, is
// rejected without allocating either.
func TestKVServerReceiveAllocs(t *testing.T) {
	eng := netsim.NewEngine()
	srv := NewKVServer(eng, packet.MAC{0xB}, netip.MustParseAddr("10.0.9.9"))
	_, sp := netsim.Connect(eng, discard{}, 0, srv, 0, 0, 0)
	srv.Attach(sp)
	srv.Store[KeyOf(7, 8)] = 99

	get := KVMsg{Op: KVGet, Key0: 7, Key1: 8, Seq: 2}
	payload := BuildKV(nil, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.9.9"), 40000, KVPort, &get)
	missed := &packet.Active{Header: packet.ActiveHeader{FID: 5, Opaque: 1}, Args: [4]uint32{7, 8, 1030, 0}, Program: cacheQueryProg}
	missed.Header.SetType(packet.TypeProgram)
	preload := &packet.Active{Header: packet.ActiveHeader{FID: 5, Flags: packet.FlagPreload, Opaque: 1}, Args: [4]uint32{7, 8, 1030, 99}, Program: cachePopulateFwdProg}
	preload.Header.SetType(packet.TypeProgram)
	for _, c := range []struct {
		name   string
		f      packet.Frame
		served uint64
	}{
		{"plain GET", packet.Frame{Eth: packet.EthHeader{EtherType: packet.EtherTypeIPv4}, Inner: payload}, 201},
		{"missed query", packet.Frame{Eth: packet.EthHeader{EtherType: packet.EtherTypeActive}, Active: missed, Inner: payload}, 201},
		{"empty preload capsule", packet.Frame{Eth: packet.EthHeader{EtherType: packet.EtherTypeActive}, Active: preload}, 0},
	} {
		c.f.Eth.Dst, c.f.Eth.Src = srv.MAC(), packet.MAC{0xA}
		raw, err := packet.EncodeFrame(&c.f)
		if err != nil {
			t.Fatal(err)
		}
		served := srv.Requests
		if n := testing.AllocsPerRun(200, func() {
			srv.Receive(raw, nil)
			eng.Run()
		}); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
		if srv.Requests-served != c.served {
			t.Fatalf("%s: served %d requests, want %d", c.name, srv.Requests-served, c.served)
		}
	}
}

type frameSink struct {
	msgs []KVMsg
}

func (s *frameSink) Receive(frame []byte, p *netsim.Port) {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return
	}
	if _, _, body, ok := ParseUDP(f.Inner); ok {
		if m, ok := DecodeKVMsg(body); ok {
			s.msgs = append(s.msgs, m)
		}
	}
}

func sendTo(t *testing.T, eng *netsim.Engine, srv *KVServer, m KVMsg, from packet.MAC) {
	t.Helper()
	payload := BuildUDP(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.9.9"), 40000, KVPort, m.Encode())
	f := &packet.Frame{Eth: packet.EthHeader{Dst: srv.MAC(), Src: from, EtherType: packet.EtherTypeIPv4}, Inner: payload}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	srv.Receive(raw, nil)
}

// TestBucketMatchesFNV pins the key -> bucket core to hash/fnv bit for bit
// (every hit ratio in the repo depends on the layout) and to zero
// allocations (Cache.Get is on get_hit's path).
func TestBucketMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 10000; i++ {
		k0, k1 := rng.Uint32(), rng.Uint32()
		lo := uint32(rng.Intn(1 << 16))
		width := uint32(rng.Intn(4096))
		pl := &alloc.Placement{Accesses: []alloc.AccessPlacement{{Range: alloc.WordRange{Lo: lo, Hi: lo + width}}}}

		h := fnv.New32a()
		h.Write(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, k0), k1))
		if got := KeyHash(k0, k1); got != h.Sum32() {
			t.Fatalf("KeyHash(%#x, %#x) = %#x, hash/fnv says %#x", k0, k1, got, h.Sum32())
		}
		addr, ok := Bucket(pl, k0, k1)
		if width < 3 {
			if ok || Buckets(pl) != 0 {
				t.Fatalf("width %d: want no buckets, got %d (ok=%v)", width, Buckets(pl), ok)
			}
			continue
		}
		if want := lo + h.Sum32()%(width-2); !ok || addr != want || Buckets(pl) != int(width-2) {
			t.Fatalf("Bucket over [%d,%d) = %d (ok=%v), want %d", lo, lo+width, addr, ok, want)
		}
	}
	if _, ok := Bucket(nil, 1, 2); ok || Buckets(&alloc.Placement{}) != 0 {
		t.Fatal("no placement must mean no buckets")
	}
	pl := &alloc.Placement{Accesses: []alloc.AccessPlacement{{Range: alloc.WordRange{Lo: 64, Hi: 1024}}}}
	if n := testing.AllocsPerRun(100, func() { Bucket(pl, 7, 9) }); n != 0 {
		t.Fatalf("Bucket allocates %v times per call, want 0", n)
	}
}

func TestServiceSkeletonsConsistent(t *testing.T) {
	// Every multi-template service must share one access skeleton; this is
	// what lets one mutant serve all of a service's programs.
	for _, svc := range []interface {
		Constraints() (*alloc.Constraints, error)
	}{
		CacheService(&Cache{}),
		HeavyHitterService(NewHeavyHitter(1)),
		CheetahSelectService(),
		CheetahRouteService(),
		MemSyncService(0),
		MemSyncService(4),
	} {
		if _, err := svc.Constraints(); err != nil {
			t.Errorf("skeleton inconsistency: %v", err)
		}
	}
}

func TestCacheConstraintsMatchListing1(t *testing.T) {
	cons, err := CacheService(&Cache{}).Constraints()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 8} // Listing 1's memory accesses, zero-based
	for i, a := range cons.Accesses {
		if a.Index != want[i] || a.AlignGroup != 1 {
			t.Errorf("access %d: %+v", i, a)
		}
	}
	if cons.IngressIdx != 7 || !cons.Elastic {
		t.Errorf("constraints: %+v", cons)
	}
}

func TestHHExactlyOneMCMutant(t *testing.T) {
	cons, err := HeavyHitterService(NewHeavyHitter(1)).Constraints()
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := alloc.DefaultShape().Mutants(cons, alloc.MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ms); n != 1 {
		t.Errorf("hh mc mutants = %d, want 1 (as the paper reports)", n)
	}
}

func TestLBCapacityIs368(t *testing.T) {
	// Section 6.1: 368 load-balancer instances under most-constrained.
	cons, err := CheetahSelectService().Constraints()
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(alloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for fid := uint16(1); fid <= 400; fid++ {
		res, err := a.Allocate(fid, cons)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			break
		}
		admitted++
	}
	if admitted != 368 {
		t.Errorf("LB capacity = %d, want 368", admitted)
	}
}

func TestCheetahCookieMath(t *testing.T) {
	lb := NewCheetah(0x1234, 8)
	tup := packet.FiveTuple{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 5, DstPort: 80, Protocol: packet.ProtoTCP,
	}
	const cookie = 0xC00C1E
	lb.LearnCookie(tup, cookie)
	if ck, ok := lb.Cookie(tup); !ok || ck != cookie {
		t.Errorf("cookie lookup: %v %v", ck, ok)
	}
	if _, ok := lb.Cookie(packet.FiveTuple{SrcPort: 99}); ok {
		t.Error("unknown flow had a cookie")
	}
}

func TestEchoServerReflects(t *testing.T) {
	eng := netsim.NewEngine()
	echo := NewEchoServer(eng, packet.MAC{0xE})
	sink := &rawSink{}
	_, ep := netsim.Connect(eng, sink, 0, echo, 0, 0, 0)
	echo.Attach(ep)

	a := &packet.Active{Header: packet.ActiveHeader{FID: 3}, Args: [4]uint32{0, 0xC00C1E, 0, 0},
		Program: lbRouteProg, Payload: []byte("p")}
	a.Header.SetType(packet.TypeProgram)
	f := &packet.Frame{Eth: packet.EthHeader{Dst: echo.MAC(), Src: packet.MAC{0xA}, EtherType: packet.EtherTypeActive}, Active: a}
	raw, _ := packet.EncodeFrame(f)
	echo.Receive(raw, nil)
	eng.Run()

	if len(sink.frames) != 1 {
		t.Fatalf("reflected = %d", len(sink.frames))
	}
	rf := sink.frames[0]
	if rf.Eth.Dst != (packet.MAC{0xA}) {
		t.Errorf("reflected to %v", rf.Eth.Dst)
	}
	if rf.Active == nil || rf.Active.Args[1] != 0xC00C1E {
		t.Error("cookie (data[1]) not preserved")
	}
	if rf.Active.Program.Len() != 0 {
		t.Error("program not stripped on reflection")
	}
}

type rawSink struct{ frames []*packet.Frame }

func (s *rawSink) Receive(frame []byte, p *netsim.Port) {
	if f, err := packet.DecodeFrame(frame); err == nil {
		s.frames = append(s.frames, f)
	}
}

func TestMemSyncServiceShape(t *testing.T) {
	svc := MemSyncService(0)
	if !svc.Elastic {
		t.Error("demand-0 memsync should be elastic")
	}
	svc4 := MemSyncService(4)
	if svc4.Elastic || svc4.Specs[0].Demand != 4 {
		t.Errorf("memsync(4): %+v", svc4.Specs)
	}
	cons, err := svc.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cons.Accesses) != 1 || cons.Accesses[0].Index != 2 {
		t.Errorf("memsync skeleton: %+v", cons.Accesses)
	}
}

func TestHHDemandsMatchPaper(t *testing.T) {
	svc := HeavyHitterService(NewHeavyHitter(1))
	if svc.Specs[0].Demand != 16 || svc.Specs[1].Demand != 16 {
		t.Errorf("sketch rows: %+v (paper: 16 blocks for <0.1%% error)", svc.Specs)
	}
	if LBPoolBlocks != 2 {
		t.Errorf("LB pool = %d blocks (paper: 2 blocks = 512 VIPs)", LBPoolBlocks)
	}
}

func TestMaskFor(t *testing.T) {
	for n, want := range map[int]uint32{256: 255, 300: 255, 4096: 4095, 1: 0} {
		if got := maskFor(n); got != want {
			t.Errorf("maskFor(%d) = %d, want %d", n, got, want)
		}
	}
}
