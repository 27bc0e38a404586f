package runtime

import (
	"net/netip"
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// testConfig is the default device with small register arrays.
func testConfig() rmt.Config {
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	return cfg
}

func testRuntime(t *testing.T) *Runtime {
	t.Helper()
	r, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func progPacket(fid uint16, p *isa.Program, args [4]uint32) *packet.Active {
	a := &packet.Active{Header: packet.ActiveHeader{FID: fid}, Args: args, Program: p}
	a.Header.SetType(packet.TypeProgram)
	return a
}

// cacheQuery is the paper's Listing 1: query an in-network object cache.
var cacheQuery = isa.MustAssemble("cache-query", `
.arg ADDR 2
MAR_LOAD $ADDR
MEM_READ
MBR_EQUALS_DATA_1
CRET
MEM_READ
MBR_EQUALS_DATA_2
CRET
RTS
MEM_READ
MBR_STORE
RETURN
`)

// installCacheGrant gives fid an aligned region [lo,hi) in the three stages
// Listing 1's accesses land on (logical stages 1, 4, 8).
func installCacheGrant(t *testing.T, r *Runtime, fid uint16, lo, hi uint32) {
	t.Helper()
	g := Grant{FID: fid, Accesses: []AccessGrant{
		{Logical: 1, Lo: lo, Hi: hi},
		{Logical: 4, Lo: lo, Hi: hi},
		{Logical: 8, Lo: lo, Hi: hi},
	}}
	if _, err := r.InstallGrant(g); err != nil {
		t.Fatal(err)
	}
}

func TestCacheQueryHitAndMiss(t *testing.T) {
	r := testRuntime(t)
	const fid = 7
	installCacheGrant(t, r, fid, 0, 1024)

	// Populate bucket 100 via the control path: key halves in stages 1 and
	// 4 (at addresses 100 and 101 — MEM_READ advances MAR), value in stage
	// 8 (at address 102).
	key0, key1, val := uint32(0xAAAA0001), uint32(0xBBBB0002), uint32(0xCAFED00D)
	r.Device().Stage(1).Registers.Write(100, key0)
	r.Device().Stage(4).Registers.Write(101, key1)
	r.Device().Stage(8).Registers.Write(102, val)

	// Hit: matching key.
	outs := r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{key0, key1, 100, 0}))
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	o := outs[0]
	if !o.ToSender {
		t.Fatal("cache hit should RTS")
	}
	if o.Active.Args[0] != val {
		t.Errorf("returned value = %#x, want %#x", o.Active.Args[0], val)
	}
	if o.Active.Header.Flags&packet.FlagDone == 0 {
		t.Error("FlagDone unset")
	}
	// All 11 instructions executed: the shrunk program is empty.
	if o.Active.Program.Len() != 0 {
		t.Errorf("shrunk program has %d instrs, want 0", o.Active.Program.Len())
	}

	// Miss: wrong first key half terminates at CRET without RTS.
	outs = r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{0xDEAD, key1, 100, 0}))
	if outs[0].ToSender {
		t.Error("cache miss must forward, not RTS")
	}
	// Miss on second half.
	outs = r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{key0, 0xDEAD, 100, 0}))
	if outs[0].ToSender {
		t.Error("partial-key miss must forward")
	}
}

func TestMemoryProtectionFault(t *testing.T) {
	r := testRuntime(t)
	const fid = 9
	installCacheGrant(t, r, fid, 0, 64)
	// Address 2000 is outside [0,64): the packet must fault and drop.
	outs := r.ExecuteProgram(progPacket(fid, cacheQuery, [4]uint32{1, 2, 2000, 0}))
	if !outs[0].Dropped {
		t.Fatal("out-of-region access not dropped")
	}
	if outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("FlagFailed unset")
	}
	if r.Faults != 1 {
		t.Errorf("Faults = %d, want 1", r.Faults)
	}
	if r.Device().Stage(1).Registers.Faults != 1 {
		t.Errorf("stage fault counter = %d", r.Device().Stage(1).Registers.Faults)
	}
}

func TestIsolationBetweenFIDs(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 64)
	installCacheGrant(t, r, 2, 64, 128)
	// FID 2 addressing FID 1's region must fault.
	outs := r.ExecuteProgram(progPacket(2, cacheQuery, [4]uint32{1, 2, 10, 0}))
	if !outs[0].Dropped {
		t.Fatal("cross-tenant access not dropped")
	}
	// FID 2 in its own region executes.
	outs = r.ExecuteProgram(progPacket(2, cacheQuery, [4]uint32{1, 2, 70, 0}))
	if outs[0].Dropped {
		t.Fatal("in-region access dropped")
	}
}

func TestUnadmittedAndQuarantinedPassThrough(t *testing.T) {
	r := testRuntime(t)
	pkt := progPacket(5, cacheQuery, [4]uint32{1, 2, 0, 0})
	outs := r.ExecuteProgram(pkt)
	if outs[0].Executed {
		t.Fatal("unadmitted FID executed")
	}
	if r.Passthrough != 1 {
		t.Errorf("Passthrough = %d", r.Passthrough)
	}

	installCacheGrant(t, r, 5, 0, 64)
	r.Deactivate(5)
	if !r.Quarantined(5) {
		t.Fatal("not quarantined")
	}
	outs = r.ExecuteProgram(progPacket(5, cacheQuery, [4]uint32{1, 2, 0, 0}))
	if outs[0].Executed {
		t.Fatal("quarantined FID executed")
	}
	r.Reactivate(5)
	outs = r.ExecuteProgram(progPacket(5, cacheQuery, [4]uint32{1, 2, 0, 0}))
	if !outs[0].Executed {
		t.Fatal("reactivated FID did not execute")
	}
}

func TestInstallGrantZeroesRegion(t *testing.T) {
	r := testRuntime(t)
	r.Device().Stage(1).Registers.Write(10, 0xFFFF)
	installCacheGrant(t, r, 3, 0, 64)
	if got := r.Device().Stage(1).Registers.Read(10); got != 0 {
		t.Errorf("stale word %#x survived grant install", got)
	}

	// A region whose edges fall mid-chunk: the words just inside each edge
	// are cleared, the words just outside it in the same chunk keep their
	// value, and a corrupted cell inside leaves no parity error behind.
	r = testRuntime(t)
	regs := r.Device().Stage(1).Registers
	const lo, hi = 100, 700
	for _, a := range []uint32{lo - 1, lo, hi - 1, hi} {
		regs.Write(a, a)
	}
	if err := regs.CorruptBit(400, 7); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for a, want := range map[uint32]uint32{lo - 1: lo - 1, lo: 0, hi - 1: 0, hi: hi} {
			if got := regs.Read(a); got != want {
				t.Errorf("%s: word %d = %d, want %d", when, a, got, want)
			}
		}
		if bad := regs.SweepParity(0, uint32(regs.Len())); len(bad) != 0 {
			t.Errorf("%s: parity errors at %v", when, bad)
		}
	}
	installCacheGrant(t, r, 4, lo, hi)
	check("install")

	// A write after the install is cleared again by a reinstall: the
	// chunk's written bit re-arms.
	regs.Write(lo, 1)
	regs.Write(hi-1, 1)
	installCacheGrant(t, r, 4, lo, hi)
	check("reinstall")
}

func TestInstallGrantReplaceAndRemove(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 4, 0, 64)
	before := r.Device().Stage(1).Prot.Used()
	// Replace with a different region: old entries must be freed.
	installCacheGrant(t, r, 4, 64, 128)
	if used := r.Device().Stage(1).Prot.Used(); used != before {
		t.Errorf("TCAM used %d after replace, want %d", used, before)
	}
	reg, ok := r.RegionFor(4, 1)
	if !ok || reg.Lo != 64 {
		t.Fatalf("region = %+v, %v", reg, ok)
	}
	ops := r.RemoveGrant(4)
	if ops <= 0 {
		t.Error("RemoveGrant reported no ops")
	}
	if r.Admitted(4) {
		t.Error("fid still admitted")
	}
	if _, ok := r.RegionFor(4, 1); ok {
		t.Error("region survived removal")
	}
	if r.RemoveGrant(4) != 0 {
		t.Error("double remove reported ops")
	}
}

func TestInstallGrantErrors(t *testing.T) {
	r := testRuntime(t)
	if _, err := r.InstallGrant(Grant{FID: 1, Accesses: []AccessGrant{{Logical: 1, Lo: 5, Hi: 5}}}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := r.InstallGrant(Grant{FID: 1, Accesses: []AccessGrant{{Logical: 1, Lo: 0, Hi: 1 << 20}}}); err == nil {
		t.Error("oversize region accepted")
	}
	if r.Admitted(1) {
		t.Error("failed grant left fid admitted")
	}
}

// hhSketch exercises HASH + ADDR_MASK + ADDR_OFFSET + MEM_MINREADINC: the
// count-min-sketch core of the paper's Listing 2.
var hhSketch = isa.MustAssemble("hh-sketch", `
MBR_LOAD 0
MBR2_LOAD 1
COPY_HASHDATA_MBR 0
COPY_HASHDATA_MBR2 1
HASH
ADDR_MASK
ADDR_OFFSET
MEM_MINREADINC
COPY_MBR2_MBR
HASH
ADDR_MASK
ADDR_OFFSET
MEM_MINREADINC
RETURN
`)

func TestSketchWithRuntimeTranslation(t *testing.T) {
	r := testRuntime(t)
	const fid = 11
	// Two sketch rows of 256 words each, at different offsets in stages 7
	// and 12 (the two MEM_MINREADINC logical positions).
	g := Grant{FID: fid, Accesses: []AccessGrant{
		{Logical: 7, Lo: 512, Hi: 768},
		{Logical: 12, Lo: 1024, Hi: 1280},
	}}
	if _, err := r.InstallGrant(g); err != nil {
		t.Fatal(err)
	}

	args := [4]uint32{0x1234, 0x5678, 0, 0}
	for i := 0; i < 3; i++ {
		outs := r.ExecuteProgram(progPacket(fid, hhSketch, args))
		if outs[0].Dropped {
			t.Fatalf("iteration %d dropped (translation failed?)", i)
		}
	}
	// After 3 updates of the same key, the sketched min count (MBR2 of the
	// last run) is 3; verify memory actually holds counts within regions.
	sum7, _, err := r.Snapshot(fid, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := uint32(0)
	for _, w := range sum7 {
		total += w
	}
	if total != 3 {
		t.Errorf("stage 7 sketch row total = %d, want 3", total)
	}
	sum12, _, err := r.Snapshot(fid, 12)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, w := range sum12 {
		total += w
	}
	if total != 3 {
		t.Errorf("stage 12 sketch row total = %d, want 3", total)
	}
}

func TestSnapshotUnknownRegion(t *testing.T) {
	r := testRuntime(t)
	if _, _, err := r.Snapshot(99, 3); err == nil {
		t.Error("snapshot of unknown fid accepted")
	}
}

func TestAdmitStateless(t *testing.T) {
	r := testRuntime(t)
	const fid = 20
	prog := isa.MustAssemble("probe", "NOP\nNOP\nRTS\nRETURN")
	outs := r.ExecuteProgram(progPacket(fid, prog, [4]uint32{}))
	if outs[0].Executed {
		t.Fatal("executed before admission")
	}
	r.AdmitStateless(fid)
	r.AdmitStateless(fid) // idempotent
	outs = r.ExecuteProgram(progPacket(fid, prog, [4]uint32{}))
	if !outs[0].Executed || !outs[0].ToSender {
		t.Fatal("stateless program did not run")
	}
}

func TestNoShrinkKeepsInstructions(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(8)
	prog := isa.MustAssemble("p", "NOP\nNOP\nRETURN")
	a := progPacket(8, prog, [4]uint32{})
	a.Header.Flags |= packet.FlagNoShrink
	outs := r.ExecuteProgram(a)
	if got := outs[0].Active.Program.Len(); got != 3 {
		t.Fatalf("NoShrink program length = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if !outs[0].Active.Program.Instrs[i].Executed {
			t.Errorf("instr %d not flagged executed", i)
		}
	}
}

func TestArithmeticAndCopyOps(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(6)
	run := func(src string, args [4]uint32) *rmt.PHV {
		t.Helper()
		prog := isa.MustAssemble("t", src)
		phv := &rmt.PHV{FID: 6, Data: args}
		r.Device().ExecPlan(r.Device().CompilePlan(new(rmt.Plan), 6, prog.Instrs, nil), phv, nil)
		return phv
	}

	p := run("MBR_LOAD 0\nMBR2_LOAD 1\nMBR_ADD_MBR2\nRETURN", [4]uint32{7, 5})
	if p.MBR != 12 {
		t.Errorf("ADD: MBR = %d", p.MBR)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nMBR_SUBTRACT_MBR2\nRETURN", [4]uint32{7, 5})
	if p.MBR != 2 {
		t.Errorf("SUB: MBR = %d", p.MBR)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nMAX\nRETURN", [4]uint32{7, 5})
	if p.MBR != 7 {
		t.Errorf("MAX: MBR = %d", p.MBR)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nMIN\nRETURN", [4]uint32{7, 5})
	if p.MBR != 5 {
		t.Errorf("MIN: MBR = %d", p.MBR)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nREVMIN\nRETURN", [4]uint32{3, 9})
	if p.MBR2 != 3 {
		t.Errorf("REVMIN: MBR2 = %d", p.MBR2)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nSWAP_MBR_MBR2\nRETURN", [4]uint32{1, 2})
	if p.MBR != 2 || p.MBR2 != 1 {
		t.Errorf("SWAP: %d/%d", p.MBR, p.MBR2)
	}
	p = run("MBR_LOAD 0\nMBR_NOT\nRETURN", [4]uint32{0})
	if p.MBR != ^uint32(0) {
		t.Errorf("NOT: MBR = %#x", p.MBR)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nBIT_OR_MBR_MBR2\nRETURN", [4]uint32{0xF0, 0x0F})
	if p.MBR != 0xFF {
		t.Errorf("OR: MBR = %#x", p.MBR)
	}
	p = run("MAR_LOAD 0\nMBR_LOAD 1\nBIT_AND_MAR_MBR\nRETURN", [4]uint32{0xFF, 0x0F})
	if p.MAR != 0x0F {
		t.Errorf("AND: MAR = %#x", p.MAR)
	}
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nMAR_MBR_ADD_MBR2\nRETURN", [4]uint32{10, 20})
	if p.MAR != 30 {
		t.Errorf("MAR_MBR_ADD_MBR2: MAR = %d", p.MAR)
	}
	p = run("MAR_LOAD 0\nMBR2_LOAD 1\nMAR_ADD_MBR2\nRETURN", [4]uint32{10, 20})
	if p.MAR != 30 {
		t.Errorf("MAR_ADD_MBR2: MAR = %d", p.MAR)
	}
	p = run("MBR_LOAD 0\nCOPY_MAR_MBR\nCOPY_MBR2_MBR\nRETURN", [4]uint32{42})
	if p.MAR != 42 || p.MBR2 != 42 {
		t.Errorf("copies: MAR=%d MBR2=%d", p.MAR, p.MBR2)
	}
	p = run("MAR_LOAD 0\nCOPY_MBR_MAR\nRETURN", [4]uint32{17})
	if p.MBR != 17 {
		t.Errorf("COPY_MBR_MAR: MBR = %d", p.MBR)
	}
	p = run("MBR_LOAD 0\nMBR_EQUALS_DATA_1\nCRETI\nMBR_NOT\nRETURN", [4]uint32{9, 9})
	if p.MBR != 0 {
		t.Errorf("CRETI should have returned early with MBR=0, got %#x", p.MBR)
	}
	// MBR_STORE writes back to the packet.
	p = run("MBR_LOAD 0\nMBR2_LOAD 1\nMBR_ADD_MBR2\nMBR_STORE 3\nRETURN", [4]uint32{2, 3})
	if p.Data[3] != 5 {
		t.Errorf("MBR_STORE: data[3] = %d", p.Data[3])
	}
}

func TestSetDstForwarding(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(12)
	prog := isa.MustAssemble("setdst", "MBR_LOAD 0\nSET_DST\nRETURN")
	outs := r.ExecuteProgram(progPacket(12, prog, [4]uint32{33}))
	if !outs[0].DstSet || outs[0].Dst != 33 {
		t.Fatalf("SET_DST output = %+v", outs[0])
	}
}

func TestForkProducesTwoOutputs(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(13)
	prog := isa.MustAssemble("fork", "FORK\nRETURN")
	outs := r.ExecuteProgram(progPacket(13, prog, [4]uint32{}))
	if len(outs) != 2 {
		t.Fatalf("outputs = %d, want 2", len(outs))
	}
	if !outs[1].IsClone {
		t.Error("second output not a clone")
	}
}

func TestFiveTupleHashing(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(14)
	prog := isa.MustAssemble("tuplehash", "COPY_HASHDATA_5TUPLE\nHASH\nCOPY_MBR_MAR\nRETURN")

	payload := buildUDP(t)
	a := progPacket(14, prog, [4]uint32{})
	a.Payload = payload
	out1 := r.ExecuteProgram(a)[0]

	b := progPacket(14, prog, [4]uint32{})
	b.Payload = payload
	out2 := r.ExecuteProgram(b)[0]
	if out1.Active.Args != out2.Active.Args {
		t.Error("same 5-tuple hashed differently")
	}
}

func buildUDP(t *testing.T) []byte {
	t.Helper()
	ip := packet.IPv4Header{TotalLen: 28, TTL: 64, Protocol: packet.ProtoUDP,
		Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")}
	udp := packet.UDPHeader{SrcPort: 7, DstPort: 8, Length: 8}
	return udp.Encode(ip.Encode(nil))
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestPreloadReachesFirstStage(t *testing.T) {
	// Appendix C: with the parser preloading MAR (and MBR), a write program
	// shrinks so its access lands on logical stage 0 — memory in the first
	// stage becomes addressable.
	r := testRuntime(t)
	const fid = 33
	g := Grant{FID: fid, Accesses: []AccessGrant{{Logical: 0, Lo: 128, Hi: 256}}}
	if _, err := r.InstallGrant(g); err != nil {
		t.Fatal(err)
	}
	prog := isa.MustAssemble("w0", "MEM_WRITE\nRTS\nRETURN") // access at index 0
	a := progPacket(fid, prog, [4]uint32{0xBEEF, 0, 130, 0})
	a.Header.Flags |= packet.FlagPreload // MAR <- data[2], MBR <- data[0]
	outs := r.ExecuteProgram(a)
	if outs[0].Dropped {
		t.Fatal("preloaded first-stage write dropped")
	}
	if got := r.Device().Stage(0).Registers.Read(130); got != 0xBEEF {
		t.Errorf("stage-0 memory = %#x, want 0xBEEF", got)
	}
}

func TestTCAMAccountingBalances(t *testing.T) {
	// Install/remove cycles must leave every stage's TCAM budget exactly
	// where it started — a leak here would slowly brick the switch.
	r := testRuntime(t)
	baseline := make([]int, 20)
	for s := range baseline {
		baseline[s] = r.Device().Stage(s).Prot.Used()
	}
	for round := 0; round < 10; round++ {
		for fid := uint16(1); fid <= 8; fid++ {
			g := Grant{FID: fid, Accesses: []AccessGrant{
				{Logical: int(fid) % 20, Lo: uint32(fid) * 64, Hi: uint32(fid)*64 + 48},
				{Logical: (int(fid) + 7) % 20, Lo: 0, Hi: 100},
			}}
			if _, err := r.InstallGrant(g); err != nil {
				t.Fatal(err)
			}
		}
		for fid := uint16(1); fid <= 8; fid++ {
			r.RemoveGrant(fid)
		}
	}
	for s := range baseline {
		if got := r.Device().Stage(s).Prot.Used(); got != baseline[s] {
			t.Errorf("stage %d TCAM leaked: %d -> %d", s, baseline[s], got)
		}
	}
}
