package client_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/secapps"
)

// wire is a fake switch endpoint that keeps the bytes the client sent.
type wire struct{ frames [][]byte }

func (w *wire) Receive(frame []byte, _ *netsim.Port) { w.frames = append(w.frames, frame) }

// templateRig is one client on a wire, fed switch-side frames by hand.
type templateRig struct {
	t   *testing.T
	cl  *client.Client
	eng *netsim.Engine
	w   *wire
	rng *rand.Rand
	// mutants is the shared enumeration the switch would pick from; lc says
	// it was made under the least-constrained policy.
	mutants []alloc.Mutant
	lc      bool
}

var switchMAC = packet.MAC{0xFF}

func newTemplateRig(t *testing.T, svc *client.Service, bind func(*client.Client), seed int64) *templateRig {
	t.Helper()
	r := &templateRig{t: t, eng: netsim.NewEngine(), w: &wire{}, rng: rand.New(rand.NewSource(seed))}
	r.cl = client.New(r.eng, 7, packet.MAC{1}, switchMAC, svc)
	if bind != nil {
		bind(r.cl)
	}
	_, cp := netsim.Connect(r.eng, r.w, 0, r.cl, 0, 0, 0)
	r.cl.Attach(cp)
	cons, err := svc.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cons.Accesses) == 0 {
		return r // stateless: the grant names no mutant
	}
	if r.mutants, _, err = r.cl.Pipeline.Mutants(cons, alloc.MostConstrained); err != nil {
		r.lc = true
		if r.mutants, _, err = r.cl.Pipeline.Mutants(cons, alloc.LeastConstrained); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.mutants) == 0 {
		t.Fatal("no mutants")
	}
	return r
}

// deliver hands the client one switch-originated active frame.
func (r *templateRig) deliver(a *packet.Active) {
	r.t.Helper()
	a.Header.FID = r.cl.FID()
	a.Header.Flags |= packet.FlagFromSwch
	raw, err := packet.EncodeFrame(&packet.Frame{
		Eth:    packet.EthHeader{Dst: r.cl.MAC(), Src: switchMAC, EtherType: packet.EtherTypeActive},
		Active: a,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.cl.Receive(raw, nil)
	r.eng.Run()
}

// grant delivers an allocation response (or, with FlagRealloc, a
// reallocation notice) for the mutant, with a different region per access
// starting at base.
func (r *templateRig) grant(mutant int, epoch uint8, base uint32, flags uint16) {
	resp := &packet.AllocResponse{MutantIndex: packet.PackEpoch(uint32(mutant), epoch)}
	if r.lc {
		resp.MutantIndex |= packet.PolicyBitLC
	}
	if r.mutants != nil {
		for i, logical := range r.mutants[mutant] {
			lo := base + uint32(i)*512
			resp.Grants[logical%r.cl.Pipeline.NumStages] = packet.StageGrant{Start: lo, End: lo + 256}
		}
	}
	a := &packet.Active{Header: packet.ActiveHeader{Flags: flags}, AllocResp: resp}
	a.Header.SetType(packet.TypeAllocResp)
	r.deliver(a)
}

func (r *templateRig) control(flags uint16) {
	a := &packet.Active{Header: packet.ActiveHeader{Flags: flags}}
	a.Header.SetType(packet.TypeControl)
	r.deliver(a)
}

// checkSends sends every template with random arguments and compares what
// reached the wire with EncodeFrame of the frame SendProgram stands for: the
// synthesized program under the current epoch when the capsule may go out
// activated, the bare payload otherwise.
func (r *templateRig) checkSends(when string, wantActive bool) {
	r.t.Helper()
	svc := r.cl.Service()
	names := make([]string, 0, len(svc.Templates)+1)
	for n := range svc.Templates {
		names = append(names, n)
	}
	sort.Strings(names)
	names = append(names, "no-such-template")
	extras := []uint16{packet.FlagMemSync, packet.FlagPreload, packet.FlagNoShrink}
	for _, name := range names {
		for i := 0; i < 24; i++ {
			var args [4]uint32
			for j := range args {
				args[j] = r.rng.Uint32()
			}
			var flags uint16
			for _, f := range extras {
				if r.rng.Intn(2) == 0 {
					flags |= f
				}
			}
			payload := make([]byte, r.rng.Intn(1501))
			r.rng.Read(payload)
			if i == 0 {
				payload = nil
			}
			var dst packet.MAC
			r.rng.Read(dst[:])

			want := &packet.Frame{
				Eth:   packet.EthHeader{Dst: dst, Src: r.cl.MAC(), EtherType: packet.EtherTypeIPv4},
				Inner: payload,
			}
			prog := r.cl.Program(name)
			active := prog != nil && (r.cl.Operational() || flags&packet.FlagMemSync != 0)
			if active {
				a := &packet.Active{
					Header:  packet.ActiveHeader{FID: r.cl.FID(), Flags: flags, Opaque: uint32(r.cl.Epoch())},
					Args:    args,
					Program: prog,
				}
				a.Header.SetType(packet.TypeProgram)
				want.Eth.EtherType, want.Active = packet.EtherTypeActive, a
			}
			if name != "no-such-template" && flags&packet.FlagMemSync == 0 && active != wantActive {
				r.t.Fatalf("%s: template %q active = %v, want %v (state %v)", when, name, active, wantActive, r.cl.State())
			}
			wantRaw, err := packet.EncodeFrame(want)
			if err != nil {
				r.t.Fatal(err)
			}

			sent, plain := r.cl.Sent, r.cl.SentUnactivated
			r.w.frames = r.w.frames[:0]
			if err := r.cl.SendProgram(name, args, flags, payload, dst); err != nil {
				r.t.Fatal(err)
			}
			r.eng.Run()
			if len(r.w.frames) != 1 || !bytes.Equal(r.w.frames[0], wantRaw) {
				r.t.Fatalf("%s: template %q flags %#x payload %d B: wire differs from EncodeFrame\n got %x\nwant %x",
					when, name, flags, len(payload), r.w.frames, wantRaw)
			}
			wantPlain := plain
			if !active {
				wantPlain++
			}
			if r.cl.Sent != sent+1 || r.cl.SentUnactivated != wantPlain {
				r.t.Fatalf("%s: Sent %d -> %d, SentUnactivated %d -> %d (active %v)",
					when, sent, r.cl.Sent, plain, r.cl.SentUnactivated, active)
			}
		}
	}
}

// TestSendProgramMatchesEncodeFrame pins the per-grant wire templates to the
// encoder, for every in-tree service and template, across the grant
// lifecycle: first grant, the snapshot window of a reallocation (old epoch
// still stamped), reactivation (new epoch), release, a fresh grant of another
// mutant, and eviction.
func TestSendProgramMatchesEncodeFrame(t *testing.T) {
	cache := apps.NewCache(packet.MAC{2}, netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 2}))
	services := []struct {
		svc  *client.Service
		bind func(*client.Client)
	}{
		{apps.CacheService(cache), cache.Bind},
		{apps.CoherentCacheService(), nil},
		{apps.HeavyHitterService(apps.NewHeavyHitter(30)), nil},
		{apps.CheetahSelectService(), nil},
		{apps.CheetahRouteService(), nil},
		{apps.MemSyncService(0), nil},
		{&client.Service{Name: "mirror", Main: "main", Templates: map[string]*isa.Program{
			"main": isa.MustAssemble("mirror", "FORK 1\nRETURN\n")}}, nil},
		{secapps.SynFloodService(nil), nil},
		{secapps.RateLimitService(nil), nil},
		{secapps.HXSketchService(), nil},
		{secapps.HXClaimService(), nil},
	}
	for i, s := range services {
		s := s
		t.Run(s.svc.Name, func(t *testing.T) {
			r := newTemplateRig(t, s.svc, s.bind, int64(100+i))
			r.checkSends("before admission", false)

			first := 0
			if len(r.mutants) > 0 {
				first = r.rng.Intn(len(r.mutants))
			}
			r.grant(first, 3, 1024, 0)
			if !r.cl.Operational() || r.cl.Epoch() != 3 {
				t.Fatalf("after grant: state %v epoch %d", r.cl.State(), r.cl.Epoch())
			}
			r.checkSends("first grant", true)

			r.grant(first, 4, 8192, packet.FlagRealloc)
			if r.cl.State() != client.MemMgmt || r.cl.Epoch() != 3 {
				t.Fatalf("snapshot window: state %v epoch %d, want memory-management under epoch 3", r.cl.State(), r.cl.Epoch())
			}
			r.checkSends("snapshot window", false)
			r.control(packet.FlagRealloc | packet.FlagDone)
			if !r.cl.Operational() || r.cl.Epoch() != 4 {
				t.Fatalf("after reactivation: state %v epoch %d", r.cl.State(), r.cl.Epoch())
			}
			r.checkSends("reactivated", true)

			if err := r.cl.Release(); err != nil {
				t.Fatal(err)
			}
			r.control(packet.FlagRelease | packet.FlagDone)
			if r.cl.State() != client.Idle || r.cl.Program(s.svc.Main) != nil {
				t.Fatalf("after release: state %v, program kept", r.cl.State())
			}
			r.checkSends("released", false)

			second := first
			if len(r.mutants) > 1 {
				second = (first + 1 + r.rng.Intn(len(r.mutants)-1)) % len(r.mutants)
			}
			r.grant(second, 9, 2048, 0)
			r.checkSends("second grant", true)

			r.control(packet.FlagEvicted)
			if r.cl.State() != client.Idle || r.cl.Evictions != 1 {
				t.Fatalf("after eviction: state %v evictions %d", r.cl.State(), r.cl.Evictions)
			}
			r.checkSends("evicted", false)
		})
	}
}

type discard struct{}

func (discard) Receive([]byte, *netsim.Port) {}

// TestClientSendReceiveAllocs gates the end host's share of the packet path:
// a send encodes into the client's scratch and the port copies it into the
// engine's arena (one slab per few hundred frames, below AllocsPerRun's
// whole-allocation resolution), and a receive — decode into client scratch
// plus the cache's reply handler — allocates nothing.
func TestClientSendReceiveAllocs(t *testing.T) {
	selfIP, srvIP := netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 2})
	cache := apps.NewCache(packet.MAC{2}, selfIP, srvIP)
	r := newTemplateRig(t, apps.CacheService(cache), cache.Bind, 1)
	_, cp := netsim.Connect(r.eng, discard{}, 0, r.cl, 0, 0, 0)
	r.cl.Attach(cp)
	r.grant(0, 3, 1024, 0)
	var answers, sum uint32
	cache.OnResponse = func(seq, value uint32, hit bool) { answers++; sum += seq + value }

	get := apps.KVMsg{Op: apps.KVGet, Key0: 1, Key1: 2, Seq: 9}
	payload := apps.BuildKV(nil, selfIP, srvIP, 40000, apps.KVPort, &get)
	sent := r.cl.Sent
	if n := testing.AllocsPerRun(200, func() {
		_ = r.cl.SendProgram("main", [4]uint32{1, 2, 1030, 0}, 0, payload, packet.MAC{2})
		r.eng.Run()
	}); n != 0 {
		t.Errorf("SendProgram: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = r.cl.SendPlain(payload, packet.MAC{2})
		r.eng.Run()
	}); n != 0 {
		t.Errorf("SendPlain: %v allocs, want 0", n)
	}
	if r.cl.Sent-sent != 402 || r.cl.SentUnactivated != 201 {
		t.Fatalf("sends did not take the measured paths: sent %d, unactivated %d", r.cl.Sent-sent, r.cl.SentUnactivated)
	}

	// An RTS hit reply as the switch emits it: executed prefix stripped, the
	// value in data[0], the request datagram behind the headers.
	hit := &packet.Active{
		Header:  packet.ActiveHeader{FID: r.cl.FID(), Flags: packet.FlagRTS | packet.FlagDone | packet.FlagFromSwch, Opaque: 3},
		Args:    [4]uint32{77, 2, 1030, 0},
		Program: &isa.Program{Instrs: r.cl.Program("main").Instrs[8:]},
	}
	hit.Header.SetType(packet.TypeProgram)
	hitRaw, err := packet.EncodeFrame(&packet.Frame{
		Eth:    packet.EthHeader{Dst: r.cl.MAC(), Src: switchMAC, EtherType: packet.EtherTypeActive},
		Active: hit, Inner: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := apps.KVMsg{Op: apps.KVResp, Key0: 1, Key1: 2, Value: 77, Seq: 9}
	missRaw, err := packet.EncodeFrame(&packet.Frame{
		Eth:   packet.EthHeader{Dst: r.cl.MAC(), Src: packet.MAC{2}, EtherType: packet.EtherTypeIPv4},
		Inner: apps.BuildKV(nil, srvIP, selfIP, apps.KVPort, 40000, &resp),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		raw  []byte
	}{{"RTS hit reply", hitRaw}, {"plain KV reply", missRaw}} {
		if n := testing.AllocsPerRun(200, func() { r.cl.Receive(c.raw, nil) }); n != 0 {
			t.Errorf("Receive of a %s: %v allocs, want 0", c.name, n)
		}
	}
	if cache.Hits != 201 || cache.Misses != 201 || answers != 402 || sum != 402*(9+77) {
		t.Fatalf("replies did not reach the handler: hits %d misses %d answers %d sum %d", cache.Hits, cache.Misses, answers, sum)
	}
}
