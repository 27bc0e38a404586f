package testbed

import (
	"slices"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/guard"
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/workload"
)

func newBed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestAllocationHandshake(t *testing.T) {
	tb := newBed(t)
	_, cl := tb.AddCache(1, tb.AddKVServer())
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	pl := cl.Placement()
	if pl == nil || len(pl.Accesses) != 3 {
		t.Fatalf("placement = %+v", pl)
	}
	// The switch installed matching regions.
	for _, ap := range pl.Accesses {
		reg, ok := tb.RT.RegionFor(1, ap.Logical%20)
		if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
			t.Errorf("region mismatch at stage %d: %+v vs %+v", ap.Logical%20, reg, ap)
		}
	}
	if cl.Program("main") == nil || cl.Program("populate") == nil {
		t.Error("programs not synthesized")
	}
}

func TestCacheEndToEnd(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	cache, cl := tb.AddCache(1, srv)
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Server holds 64 objects; cache the first 16.
	var hot []apps.KVMsg
	for i := 0; i < 64; i++ {
		k0, k1, v := uint32(0xA000+i), uint32(0xB000+i), uint32(0xC000+i)
		srv.Store[apps.KeyOf(k0, k1)] = v
		if i < 16 {
			hot = append(hot, apps.KVMsg{Key0: k0, Key1: k1, Value: v})
		}
	}
	cache.SetHotObjects(hot)
	cache.Populate()
	tb.RunFor(10 * time.Millisecond)
	if cache.PopAcks != 16 {
		t.Fatalf("populate acks = %d, want 16", cache.PopAcks)
	}

	// Query every object: cached ones hit (value served by the switch),
	// others reach the server.
	responses := map[uint32]uint32{}
	hits := map[uint32]bool{}
	cache.OnResponse = func(seq, value uint32, hit bool) {
		responses[seq] = value
		hits[seq] = hit
	}
	seqOf := map[uint32]int{}
	for i := 0; i < 64; i++ {
		seq := cache.Get(uint32(0xA000+i), uint32(0xB000+i))
		seqOf[seq] = i
	}
	tb.RunFor(50 * time.Millisecond)

	if len(responses) != 64 {
		t.Fatalf("responses = %d, want 64", len(responses))
	}
	hitCount := 0
	for seq, i := range seqOf {
		want := uint32(0xC000 + i)
		if responses[seq] != want {
			t.Errorf("object %d: value %#x, want %#x (hit=%v)", i, responses[seq], want, hits[seq])
		}
		if hits[seq] {
			hitCount++
		}
	}
	// All 16 hot objects hit unless bucket collisions evicted a few.
	if hitCount < 10 || hitCount > 16 {
		t.Errorf("hits = %d, want ~16", hitCount)
	}
	if srv.Requests != uint64(64-hitCount) {
		t.Errorf("server saw %d GETs, want %d", srv.Requests, 64-hitCount)
	}
	if cache.HitRate() <= 0 {
		t.Error("hit rate not computed")
	}
}

func TestCacheMissBeforeAllocation(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	cache, _ := tb.AddCache(1, srv)
	srv.Store[apps.KeyOf(1, 2)] = 42
	got := uint32(0)
	cache.OnResponse = func(seq, value uint32, hit bool) {
		if hit {
			t.Error("hit without allocation")
		}
		got = value
	}
	cache.Get(1, 2) // unactivated: the shim pauses active transmissions
	tb.RunFor(5 * time.Millisecond)
	if got != 42 {
		t.Fatalf("server value = %d", got)
	}
}

func TestReallocationProtocol(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()

	// Fill the cache-reachable stages with four caches; under worst-fit
	// the fourth shares stages with an earlier one (Figure 9b).
	clients := make([]*client.Client, 0, 4)
	for i := 0; i < 4; i++ {
		_, cl := tb.AddCache(uint16(i+1), srv)
		clients = append(clients, cl)
	}
	realloc := 0
	for i := 0; i < 4; i++ {
		if err := clients[i].RequestAndWait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	tb.RunFor(2 * time.Second)
	for i := 0; i < 4; i++ {
		if clients[i].State() != client.Operational {
			t.Errorf("client %d state %v after settling", i, clients[i].State())
		}
		realloc += int(clients[i].Reallocations)
	}
	if realloc == 0 {
		t.Error("fourth arrival disturbed no one (expected sharing)")
	}
	// All regions installed on the switch remain isolated.
	for i := 0; i < 4; i++ {
		pl := clients[i].Placement()
		if pl == nil {
			t.Fatalf("client %d has no placement", i)
		}
		for _, ap := range pl.Accesses {
			reg, ok := tb.RT.RegionFor(uint16(i+1), ap.Logical%20)
			if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
				t.Errorf("client %d: switch/client placement diverged at stage %d", i, ap.Logical%20)
			}
		}
	}
}

func TestReleaseExpandsAndAcks(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	var cls []*client.Client
	// Force sharing: many caches into the same stage range.
	for i := 0; i < 6; i++ {
		_, cl := tb.AddCache(uint16(i+1), srv)
		cls = append(cls, cl)
		if err := cl.RequestAndWait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	before := cls[1].Placement().Accesses[0].Range
	if err := cls[0].Release(); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(3 * time.Second)
	if cls[0].State() != client.Idle {
		t.Errorf("releasing client state = %v", cls[0].State())
	}
	if tb.Ctrl.Allocator().NumApps() != 5 {
		t.Errorf("resident apps = %d, want 5", tb.Ctrl.Allocator().NumApps())
	}
	grew := false
	for _, cl := range cls[1:] {
		r := cl.Placement().Accesses[0].Range
		if r.Hi-r.Lo > before.Hi-before.Lo {
			grew = true
		}
	}
	_ = grew // growth depends on which stages the released app held
}

// TestReleaseOutlivesTheRequestsRetry: a tenant admitted before its
// request's retry timer fires, and released at once, stays released. The
// release grows three elastic neighbours, which takes long enough for the
// still-armed retry to fire while it runs; a retry that still counted as the
// live request would resend the allocation request and admit the tenant
// again after it asked to leave.
func TestReleaseOutlivesTheRequestsRetry(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	for fid := uint16(1); fid <= 3; fid++ {
		_, cl := tb.AddCache(fid, srv)
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	_, cl := tb.AddMemSync(9, 0)
	cl.RetryAfter = 30 * time.Millisecond
	start := tb.Eng.Now()
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if took := tb.Eng.Now() - start; took >= cl.RetryAfter*9/10 {
		t.Fatalf("admission took %v: the retry (%v ± 10%%) is no longer pending", took, cl.RetryAfter)
	}
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(3 * time.Second)
	if cl.State() != client.Idle || cl.Retries != 0 || tb.RT.Admitted(9) || tb.Ctrl.Allocator().NumApps() != 3 {
		t.Fatalf("after release: state %v, %d retries, admitted %v, %d residents; want idle, 0, false, 3",
			cl.State(), cl.Retries, tb.RT.Admitted(9), tb.Ctrl.Allocator().NumApps())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyHitterEndToEnd(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()

	hh := apps.NewHeavyHitter(20)
	cl := tb.AddClient(7, apps.HeavyHitterService(hh))
	hh.Bind(cl)
	hh.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Send a skewed stream: key 0xHOT dominates.
	z := workload.NewZipf(7, 1.3, 256)
	keys := make([][2]uint32, 256)
	for i := range keys {
		keys[i] = [2]uint32{uint32(0x1000 + i), uint32(0x2000 + i)}
	}
	for i := 0; i < 2000; i++ {
		k := keys[z.Next()]
		hh.Observe(k[0], k[1], nil, srv.MAC())
		tb.RunFor(10 * time.Microsecond)
	}
	tb.RunFor(10 * time.Millisecond)

	hot, err := hh.HotKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot keys detected")
	}
	// The hottest Zipf key must be among them.
	found := false
	for _, kv := range hot {
		if kv.Key0 == keys[0][0] {
			found = true
		}
	}
	if !found {
		t.Errorf("hottest key missing from %d hot keys", len(hot))
	}
	// Cold keys must be a minority of the table.
	if len(hot) > 64 {
		t.Errorf("hot set = %d keys, threshold too permissive", len(hot))
	}
}

func TestCheetahEndToEnd(t *testing.T) {
	tb := newBed(t)
	// Two backend echo servers.
	s1, s2 := apps.NewEchoServer(tb.Eng, MACFor(201)), apps.NewEchoServer(tb.Eng, MACFor(202))
	p1, p2 := tb.AddHost(s1), tb.AddHost(s2)

	lb := apps.NewCheetah(0x5EED, 2)
	selCl := tb.AddClient(21, apps.CheetahSelectService())
	routeCl := tb.AddClient(22, apps.CheetahRouteService())
	lb.Select = selCl
	lb.Route = routeCl

	var cookie uint32
	gotCookie := false
	selCl.Handler = func(c *client.Client, f *packet.Frame) {
		if f.Active != nil && f.Active.Args[1] != 0 {
			cookie = f.Active.Args[1]
			gotCookie = true
		}
	}
	if err := selCl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := routeCl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	lb.SetupPool([]uint32{uint32(p1), uint32(p2)})
	tb.RunFor(5 * time.Millisecond)

	// SYN: the switch picks a server and computes the cookie.
	tuple := packet.FiveTuple{Src: IPFor(50), Dst: IPFor(60), SrcPort: 1111, DstPort: 80, Protocol: packet.ProtoTCP}
	payload := apps.BuildUDP(tuple.Src, tuple.Dst, tuple.SrcPort, tuple.DstPort, []byte("SYN"))
	lb.ActivateSYN(payload, MACFor(250) /* VIP: unknown MAC, SET_DST overrides */)
	tb.RunFor(5 * time.Millisecond)
	if s1.Echoed+s2.Echoed != 1 {
		t.Fatalf("SYN reached %d servers, want 1", s1.Echoed+s2.Echoed)
	}
	if !gotCookie {
		t.Fatal("cookie not echoed back")
	}
	lb.LearnCookie(tuple, cookie)

	// Data packets with the cookie route to the SAME server.
	first := s1.Echoed == 1
	for i := 0; i < 5; i++ {
		lb.ActivateData(tuple, payload, MACFor(250))
		tb.RunFor(2 * time.Millisecond)
	}
	if first && (s1.Echoed != 6 || s2.Echoed != 0) {
		t.Errorf("flow split: s1=%d s2=%d", s1.Echoed, s2.Echoed)
	}
	if !first && (s2.Echoed != 6 || s1.Echoed != 0) {
		t.Errorf("flow split: s1=%d s2=%d", s1.Echoed, s2.Echoed)
	}

	// A second flow round-robins to the other server.
	tuple2 := tuple
	tuple2.SrcPort = 2222
	payload2 := apps.BuildUDP(tuple2.Src, tuple2.Dst, tuple2.SrcPort, tuple2.DstPort, []byte("SYN"))
	lb.ActivateSYN(payload2, MACFor(250))
	tb.RunFor(5 * time.Millisecond)
	if s1.Echoed == 0 || s2.Echoed == 0 {
		t.Errorf("round robin failed: s1=%d s2=%d", s1.Echoed, s2.Echoed)
	}
}

func TestMemSyncReadWrite(t *testing.T) {
	tb := newBed(t)
	ms, cl := tb.AddMemSync(31, 4)
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := ms.Region()
	if !ok || hi-lo != 4*256 {
		t.Fatalf("region = [%d,%d)", lo, hi)
	}
	var wrote, read bool
	ms.Write(10, 0xFEED, func(v uint32) { wrote = true })
	tb.RunFor(5 * time.Millisecond)
	if !wrote {
		t.Fatal("write not acknowledged")
	}
	ms.Read(10, func(v uint32) {
		read = true
		if v != 0xFEED {
			t.Errorf("read %#x, want 0xFEED", v)
		}
	})
	tb.RunFor(5 * time.Millisecond)
	if !read {
		t.Fatal("read not answered")
	}
	if ms.Outstanding() != 0 {
		t.Errorf("outstanding = %d", ms.Outstanding())
	}
}

func TestStatelessAdmission(t *testing.T) {
	tb := newBed(t)
	cl := tb.AddClient(41, apps.CheetahRouteService())
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !tb.RT.Admitted(41) {
		t.Error("stateless fid not admitted")
	}
	if tb.Ctrl.Allocator().NumApps() != 0 {
		t.Error("stateless fid consumed allocator state")
	}
	// The admitted program executes at the switch with no memory granted.
	ran := tb.RT.ProgramsRun
	if err := cl.SendProgram("main", [4]uint32{}, 0, nil, cl.MAC()); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(time.Millisecond)
	if got := tb.RT.ProgramsRun - ran; got != 1 {
		t.Errorf("stateless capsule executed %d times, want 1", got)
	}
}

// sharedCounterProg increments the word at ADDR and returns the new count.
// Its RTS sits at the last ingress stage, which pins the access to logical
// stage 2: the program has exactly one mutant, so every tenant that runs it
// links byte-identical instructions.
var sharedCounterProg = isa.MustAssemble("shared-counter", `
.arg ADDR 2
NOP
MAR_LOAD $ADDR
MEM_INCREMENT
MBR_STORE 0
NOP
NOP
NOP
NOP
NOP
RTS
RETURN
`)

// TestTenantsSharingProgramBytesKeepOwnGrants: two tenants whose linked
// programs are byte-identical share one decoded-program cache entry, yet each
// capsule runs against its own grant — one plan per tenant, each reading and
// writing only its own region — and an address in the neighbour's region
// faults and is charged to the sender.
func TestTenantsSharingProgramBytesKeepOwnGrants(t *testing.T) {
	tb := newBed(t)
	replies := map[uint16][]uint32{}
	var cls []*client.Client
	for _, fid := range []uint16{7, 8} {
		cl := tb.AddClient(fid, &client.Service{
			Name:      "shared-counter",
			Main:      "main",
			Templates: map[string]*isa.Program{"main": sharedCounterProg},
			Specs:     []compiler.AccessSpec{{Demand: 2}},
		})
		cl.Handler = func(c *client.Client, f *packet.Frame) {
			if f.Active != nil && f.Active.Header.Flags&packet.FlagRTS != 0 {
				replies[c.FID()] = append(replies[c.FID()], f.Active.Args[0])
			}
		}
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cls = append(cls, cl)
	}
	a, b := cls[0], cls[1]
	pa, pb := a.Placement(), b.Placement()
	if !slices.Equal(pa.Mutant, pb.Mutant) {
		t.Fatalf("mutants differ: %v vs %v", pa.Mutant, pb.Mutant)
	}
	if !slices.Equal(a.Program("main").Instrs, b.Program("main").Instrs) {
		t.Fatal("same mutant linked different programs")
	}
	stage := pa.Accesses[0].Logical % tb.cfg.RMT.NumStages
	ra, rb := pa.Accesses[0].Range, pb.Accesses[0].Range
	if ra.Lo < rb.Hi && rb.Lo < ra.Hi {
		t.Fatalf("grants overlap: %v and %v", ra, rb)
	}

	cache, compiles := tb.Switch.ProgCache(), tb.RT.PlanCompiles
	send := func(cl *client.Client, addr uint32) {
		t.Helper()
		if err := cl.SendProgram("main", [4]uint32{0, 0, addr, 0}, 0, nil, cl.MAC()); err != nil {
			t.Fatal(err)
		}
		tb.RunFor(time.Millisecond)
	}
	send(a, ra.Lo+1)
	send(a, ra.Lo+1)
	send(b, rb.Lo+1)
	if _, misses, _ := cache.Stats(); cache.Len() != 1 || misses != 1 {
		t.Fatalf("program cache holds %d entries after %d misses, want 1 and 1", cache.Len(), misses)
	}
	if got := tb.RT.PlanCompiles - compiles; got != 2 {
		t.Fatalf("%d plans compiled, want one per tenant (2)", got)
	}
	if !slices.Equal(replies[7], []uint32{1, 2}) || !slices.Equal(replies[8], []uint32{1}) {
		t.Fatalf("replies = %v, want fid 7 [1 2], fid 8 [1]", replies)
	}
	regs := tb.RT.Device().Stage(stage).Registers
	for addr := min(ra.Lo, rb.Lo); addr < max(ra.Hi, rb.Hi); addr++ {
		want := uint32(0)
		switch addr {
		case ra.Lo + 1:
			want = 2
		case rb.Lo + 1:
			want = 1
		}
		if got := regs.Read(addr); got != want {
			t.Fatalf("stage %d word %d = %d, want %d", stage, addr, got, want)
		}
	}

	// Fid 7 aims at fid 8's word through the shared program: it faults, the
	// word stays put, and the violation lands on fid 7's ledger only.
	faults := tb.RT.Faults
	send(a, rb.Lo+1)
	if tb.RT.Faults != faults+1 || len(replies[7]) != 2 {
		t.Fatalf("neighbour access: faults +%d, fid 7 replies %v", tb.RT.Faults-faults, replies[7])
	}
	if got := regs.Read(rb.Lo + 1); got != 1 {
		t.Fatalf("neighbour's word = %d after the faulting capsule, want 1", got)
	}
	if led := tb.Guard.Tenant(7); led == nil || led.Count(guard.KindMemFault) != 1 {
		t.Fatalf("fid 7 ledger = %+v, want one mem fault", led)
	}
	if led := tb.Guard.Tenant(8); led != nil && led.Count(guard.KindMemFault) != 0 {
		t.Fatalf("fid 8 charged %d mem faults for fid 7's capsule", led.Count(guard.KindMemFault))
	}
}

func TestAllocationFailureNotifiesClient(t *testing.T) {
	tb := newBed(t)
	failed := 0
	// Exhaust HH capacity (16-block rows, one mutant): ~23 fit per stage.
	for i := 0; i < 40; i++ {
		hh := apps.NewHeavyHitter(10)
		svc := apps.HeavyHitterService(hh)
		svc.OnFailed = func(c *client.Client) { failed++ }
		cl := tb.AddClient(uint16(100+i), svc)
		hh.Bind(cl)
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		tb.RunFor(500 * time.Millisecond)
	}
	if failed == 0 {
		t.Fatal("no admission failures after exhausting memory")
	}
	// Failures are recorded and fast relative to successes (Figure 5a).
	var failDur, okDur time.Duration
	var nf, nok int
	for _, r := range tb.Ctrl.Records {
		if r.Failed {
			failDur += r.End - r.Start
			nf++
		} else {
			okDur += r.End - r.Start
			nok++
		}
	}
	if nf == 0 || nok == 0 {
		t.Fatalf("records: %d failed, %d ok", nf, nok)
	}
	if failDur/time.Duration(nf) >= okDur/time.Duration(nok) {
		t.Errorf("failed admissions (%v avg) should be faster than successful (%v avg)",
			failDur/time.Duration(nf), okDur/time.Duration(nok))
	}
}

func TestProvisioningRecordsBreakdown(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()
	for i := 0; i < 5; i++ {
		_, cl := tb.AddCache(uint16(i+1), srv)
		if err := cl.RequestAndWait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(tb.Ctrl.Records) != 5 {
		t.Fatalf("records = %d", len(tb.Ctrl.Records))
	}
	for i, r := range tb.Ctrl.Records {
		if r.Failed {
			t.Errorf("record %d failed", i)
		}
		if r.TableOps <= 0 || r.TableTime <= 0 {
			t.Errorf("record %d: no table work (%d ops)", i, r.TableOps)
		}
		if r.End <= r.Start {
			t.Errorf("record %d: no elapsed time", i)
		}
		// Table updates dominate provisioning (Figure 8a's finding).
		if r.TableTime < r.Compute {
			t.Errorf("record %d: table %v < compute %v", i, r.TableTime, r.Compute)
		}
	}
}

// frameCounter is a collector host, host 201, that counts the frames
// delivered to it.
type frameCounter struct{ frames int }

func (f *frameCounter) Receive(frame []byte, p *netsim.Port) { f.frames++ }
func (f *frameCounter) MAC() packet.MAC                      { return MACFor(201) }
func (f *frameCounter) Attach(*netsim.Port)                  {}

// TestMirrorService covers FORK end to end: a stateless program clones every
// activated packet through mirror session 1, whose collector port is
// control-plane state, while the original continues to its destination.
func TestMirrorService(t *testing.T) {
	tb := newBed(t)
	// Destination server and a collector host.
	srv := tb.AddKVServer()
	collector := &frameCounter{}
	colPort := tb.AddHost(collector)

	const session = 1
	cl := tb.AddClient(5, &client.Service{Name: "mirror", Main: "main", Templates: map[string]*isa.Program{
		"main": isa.MustAssemble("mirror", "FORK 1\nRETURN\n")}})
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The controller installs the clone session's collector port.
	tb.RT.SetMirrorSession(cl.FID(), session, uint32(colPort))

	// Ten activated packets toward the server: the server sees the
	// originals, the collector sees the clones.
	for i := 0; i < 10; i++ {
		msg := apps.KVMsg{Op: apps.KVGet, Key0: uint32(i), Key1: 1}
		payload := apps.BuildUDP(IPFor(5), IPFor(999), 40000, apps.KVPort, msg.Encode())
		if err := cl.SendProgram("main", [4]uint32{}, 0, payload, srv.MAC()); err != nil {
			t.Fatal(err)
		}
		tb.RunFor(time.Millisecond)
	}
	tb.RunFor(10 * time.Millisecond)
	if srv.Requests != 10 {
		t.Errorf("server saw %d originals, want 10", srv.Requests)
	}
	if collector.frames != 10 {
		t.Errorf("collector saw %d clones, want 10", collector.frames)
	}
	// Clones cost recirculations (bandwidth inflation, Section 7.2).
	if tb.RT.Device().Recirculations == 0 {
		t.Error("FORK clones should recirculate")
	}
}

// TestCheckComparesBooksWithTables: a settled switch's books and protection
// tables agree, and a TCAM region edited behind the controller's back — the
// tenant's range in one stage cut by a block — is reported under row P4b.
func TestCheckComparesBooksWithTables(t *testing.T) {
	tb := newBed(t)
	_, cl := tb.AddCache(1, tb.AddKVServer())
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if vs := tb.Check(); vs != nil {
		t.Fatalf("settled switch: %v", vs)
	}
	stage := cl.Placement().Accesses[0].Physical
	prot := tb.RT.Device().Stage(stage).Prot
	reg, _ := prot.Region(1)
	reg.Hi -= uint32(tb.Ctrl.Allocator().Config().BlockWords)
	if err := prot.Install(reg); err != nil {
		t.Fatal(err)
	}
	vs := tb.Check()
	if len(vs) != 1 || vs[0].Row != "P4b" {
		t.Fatalf("edited region: %v, want one P4b violation", vs)
	}
}
