package switchd

import (
	"strings"
	"testing"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
	"activermt/internal/telemetry"
)

// host is a scriptable endpoint that records what it receives.
type host struct {
	mac    packet.MAC
	port   *netsim.Port
	frames []*packet.Frame
}

func (h *host) Receive(frame []byte, p *netsim.Port) {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return
	}
	h.frames = append(h.frames, f)
}

func (h *host) send(t *testing.T, a *packet.Active, dst packet.MAC) {
	t.Helper()
	ethType := uint16(packet.EtherTypeActive)
	if a == nil {
		ethType = packet.EtherTypeIPv4
	}
	f := &packet.Frame{Eth: packet.EthHeader{Dst: dst, Src: h.mac, EtherType: ethType}, Active: a}
	if a != nil {
		f.Inner = a.Payload
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	h.port.Send(raw)
}

type rig struct {
	eng  *netsim.Engine
	sw   *Switch
	ctrl *Controller
	a, b *host
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := netsim.NewEngine()
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 8192
	acfg := alloc.DefaultConfig()
	acfg.StageWords = 8192
	n, err := NewNode(eng, NodeConfig{RMT: cfg, Alloc: acfg}, packet.MAC{0xFF})
	if err != nil {
		t.Fatal(err)
	}
	sw := n.Switch

	r := &rig{eng: eng, sw: sw, ctrl: n.Ctrl}
	r.a = &host{mac: packet.MAC{0xA}}
	r.b = &host{mac: packet.MAC{0xB}}
	for i, h := range []*host{r.a, r.b} {
		swp, hp := netsim.Connect(eng, sw, i+1, h, 0, time.Microsecond, 0)
		sw.AddPort(swp, h.mac)
		h.port = hp
	}
	return r
}

func TestPlainForwarding(t *testing.T) {
	r := newRig(t)
	r.a.send(t, nil, r.b.mac)
	r.eng.Run()
	if len(r.b.frames) != 1 {
		t.Fatalf("b received %d frames", len(r.b.frames))
	}
	if r.sw.FramesForwarded != 1 {
		t.Errorf("forwarded = %d", r.sw.FramesForwarded)
	}
}

func TestUnknownMACDropped(t *testing.T) {
	r := newRig(t)
	r.a.send(t, nil, packet.MAC{0xEE})
	r.eng.Run()
	if r.sw.UnknownMAC != 1 || r.sw.FramesDropped != 1 {
		t.Errorf("unknown=%d dropped=%d", r.sw.UnknownMAC, r.sw.FramesDropped)
	}
}

// TestCapsuleToOwnMACConsumed: a capsule that writes memory and forwards
// (a fabric home's populate-fwd shape: no RTS) to the switch's own MAC ends
// at the switch. It is counted once, as consumed — not as an unknown MAC and
// not as a drop — after its writes have landed.
func TestCapsuleToOwnMACConsumed(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	grant, ok := r.sw.Runtime().RegionFor(5, 2)
	if !ok {
		t.Fatal("no region installed")
	}
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5, Opaque: uint32(r.sw.Runtime().Epoch(5))},
		Args:    [4]uint32{0xFEED, 0, grant.Lo, 0},
		Program: isa.MustAssemble("populate-fwd", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nNOP\nRETURN"),
	}
	a.Header.SetType(packet.TypeProgram)
	in, fwd := r.sw.FramesIn, r.sw.FramesForwarded
	r.a.send(t, a, r.sw.MAC())
	r.eng.Run()
	if got := r.sw.Runtime().Device().Stage(2).Registers.Read(grant.Lo); got != 0xFEED {
		t.Errorf("memory = %#x, want the capsule's write", got)
	}
	if r.sw.FramesIn != in+1 || r.sw.FramesConsumed != 1 || r.sw.UnknownMAC != 0 || r.sw.FramesDropped != 0 || r.sw.FramesForwarded != fwd {
		t.Errorf("in +%d consumed %d unknown %d dropped %d forwarded +%d, want +1, 1, 0, 0, +0",
			r.sw.FramesIn-in, r.sw.FramesConsumed, r.sw.UnknownMAC, r.sw.FramesDropped, r.sw.FramesForwarded-fwd)
	}
	if len(r.b.frames) != 0 {
		t.Errorf("host b received %d frames", len(r.b.frames))
	}
}

func TestHairpinLatencyHalved(t *testing.T) {
	r := newRig(t)
	start := r.eng.Now()
	r.a.send(t, nil, r.a.mac) // back to sender: hairpin
	r.eng.Run()
	hairpin := r.eng.Now() - start
	if len(r.a.frames) != 1 {
		t.Fatal("hairpin frame lost")
	}
	r2 := newRig(t)
	start = r2.eng.Now()
	r2.a.send(t, nil, r2.b.mac)
	r2.eng.Run()
	cross := r2.eng.Now() - start
	if hairpin >= cross {
		t.Errorf("hairpin %v not faster than cross %v", hairpin, cross)
	}
}

// allocRequest builds a wire request matching a 1-access program.
func allocRequest(fid uint16, demand uint8) *packet.Active {
	a := &packet.Active{
		Header: packet.ActiveHeader{FID: fid},
		AllocReq: &packet.AllocRequest{
			ProgLen: 5, IngressIdx: 3,
			Accesses: []packet.AccessReq{{Index: 2, Demand: demand}},
		},
	}
	a.Header.SetType(packet.TypeAllocReq)
	return a
}

func TestAdmissionRoundTrip(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	if len(r.a.frames) != 1 {
		t.Fatalf("responses = %d", len(r.a.frames))
	}
	resp := r.a.frames[0].Active
	if resp == nil || resp.Header.Type() != packet.TypeAllocResp {
		t.Fatalf("reply: %+v", r.a.frames[0])
	}
	if resp.Header.Flags&packet.FlagFailed != 0 {
		t.Fatal("admission failed")
	}
	if !r.sw.Runtime().Admitted(5) {
		t.Error("fid not admitted on the switch")
	}
	if len(r.ctrl.Records) != 1 || r.ctrl.Records[0].Failed {
		t.Errorf("records: %+v", r.ctrl.Records)
	}
	// Provisioning advanced virtual time meaningfully (compute + tables).
	if rec := r.ctrl.Records[0]; rec.End-rec.Start < time.Millisecond {
		t.Errorf("provisioning took only %v", rec.End-rec.Start)
	}
}

func TestAdmissionSerialized(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(1, 2), r.sw.MAC())
	r.b.send(t, allocRequest(2, 2), r.sw.MAC())
	r.eng.Run()
	if len(r.ctrl.Records) != 2 {
		t.Fatalf("records = %d", len(r.ctrl.Records))
	}
	// The second admission must start no earlier than the first ends.
	if r.ctrl.Records[1].Start < r.ctrl.Records[0].End {
		t.Errorf("admissions overlapped: %v < %v", r.ctrl.Records[1].Start, r.ctrl.Records[0].End)
	}
}

func TestAdmissionFailureResponse(t *testing.T) {
	r := newRig(t)
	// 8192 words = 32 blocks per stage: demand 64 blocks cannot fit.
	r.a.send(t, allocRequest(9, 64), r.sw.MAC())
	r.eng.Run()
	if len(r.a.frames) != 1 {
		t.Fatalf("responses = %d", len(r.a.frames))
	}
	if r.a.frames[0].Active.Header.Flags&packet.FlagFailed == 0 {
		t.Error("failure flag missing")
	}
	if r.sw.Runtime().Admitted(9) {
		t.Error("failed fid admitted")
	}
}

func TestStatelessAdmissionPath(t *testing.T) {
	r := newRig(t)
	a := &packet.Active{
		Header:   packet.ActiveHeader{FID: 4},
		AllocReq: &packet.AllocRequest{ProgLen: 3, IngressIdx: -1},
	}
	a.Header.SetType(packet.TypeAllocReq)
	r.a.send(t, a, r.sw.MAC())
	r.eng.Run()
	if !r.sw.Runtime().Admitted(4) {
		t.Fatal("stateless fid not admitted")
	}
	if r.ctrl.Allocator().NumApps() != 0 {
		t.Error("stateless admission consumed allocator state")
	}
}

func TestReleaseViaControlPacket(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	rel := &packet.Active{Header: packet.ActiveHeader{FID: 5, Flags: packet.FlagRelease}}
	rel.Header.SetType(packet.TypeControl)
	r.a.send(t, rel, r.sw.MAC())
	r.eng.Run()
	if r.sw.Runtime().Admitted(5) {
		t.Error("fid still admitted after release")
	}
	if r.ctrl.Allocator().NumApps() != 0 {
		t.Error("allocator still holds the app")
	}
	// Release ack delivered.
	last := r.a.frames[len(r.a.frames)-1].Active
	if last.Header.Flags&packet.FlagRelease == 0 || last.Header.Flags&packet.FlagDone == 0 {
		t.Errorf("release ack flags: %#x", last.Header.Flags)
	}
}

func TestSnapshotTimeoutUnblocksAdmission(t *testing.T) {
	r := newRig(t)
	// A program that fills the whole pipeline has one mutant, so both
	// elastic apps must share the stage of its one access.
	elastic := func(fid uint16) *packet.Active {
		a := &packet.Active{
			Header: packet.ActiveHeader{FID: fid},
			AllocReq: &packet.AllocRequest{
				ProgLen: packet.NumStages, IngressIdx: -1, Elastic: true,
				Accesses: []packet.AccessReq{{Index: 1}},
			},
		}
		a.Header.SetType(packet.TypeAllocReq)
		return a
	}
	// Admit an elastic app that will later be reallocated but whose
	// client never answers the snapshot window.
	r.a.send(t, elastic(1), r.sw.MAC())
	r.eng.Run()

	// The second elastic app shrinks the first; host a never sends
	// SnapDone.
	r.b.send(t, elastic(2), r.sw.MAC())
	r.eng.Run()

	if len(r.ctrl.Records) != 2 {
		t.Fatalf("records = %d", len(r.ctrl.Records))
	}
	rec := r.ctrl.Records[1]
	if rec.Failed {
		t.Fatal("second admission failed")
	}
	if rec.Reallocated != 1 {
		t.Fatalf("second admission reallocated %d apps, want the first", rec.Reallocated)
	}
	// The snapshot wait hit the timeout rather than hanging forever.
	if rec.SnapshotWait < snapshotTimeout {
		t.Errorf("snapshot wait %v below timeout", rec.SnapshotWait)
	}
	if !r.sw.Runtime().Admitted(2) {
		t.Error("newcomer not admitted after timeout")
	}
	if r.sw.Runtime().Quarantined(1) {
		t.Error("reallocated fid left quarantined")
	}
}

func TestProgramExecutionThroughSwitch(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	grant, ok := r.sw.Runtime().RegionFor(5, 2)
	if !ok {
		t.Fatal("no region installed")
	}

	// A program writing then returning to sender.
	prog := isa.MustAssemble("w", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nRTS\nRETURN")
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5, Opaque: uint32(r.sw.Runtime().Epoch(5))},
		Args:    [4]uint32{0xFEED, 0, grant.Lo, 0},
		Program: prog,
	}
	a.Header.SetType(packet.TypeProgram)
	r.a.send(t, a, r.b.mac)
	r.eng.Run()
	// RTS: frame returned to host a, not forwarded to b.
	if len(r.a.frames) < 2 {
		t.Fatalf("no RTS reply (frames=%d)", len(r.a.frames))
	}
	reply := r.a.frames[len(r.a.frames)-1]
	if reply.Active == nil || reply.Active.Header.Flags&packet.FlagRTS == 0 {
		t.Fatalf("reply: %+v", reply)
	}
	if got := r.sw.Runtime().Device().Stage(2).Registers.Read(grant.Lo); got != 0xFEED {
		t.Errorf("memory = %#x", got)
	}
	if r.sw.FramesReturned != 1 {
		t.Errorf("FramesReturned = %d", r.sw.FramesReturned)
	}
}

func TestFaultingProgramDropped(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	prog := isa.MustAssemble("w", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nRTS\nRETURN")
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5, Opaque: uint32(r.sw.Runtime().Epoch(5))},
		Args:    [4]uint32{1, 0, 7000, 0}, // out of region
		Program: prog,
	}
	a.Header.SetType(packet.TypeProgram)
	before, guarded, faults := r.sw.FramesDropped, r.sw.GuardDropped, r.sw.Runtime().Faults
	r.a.send(t, a, r.b.mac)
	r.eng.Run()
	if r.sw.FramesDropped != before+1 {
		t.Errorf("dropped = %d, want %d", r.sw.FramesDropped, before+1)
	}
	// The drop is the runtime's protection fault, not the guard's.
	if r.sw.GuardDropped != guarded || r.sw.Runtime().Faults != faults+1 {
		t.Errorf("guard dropped +%d, faults +%d, want +0 +1",
			r.sw.GuardDropped-guarded, r.sw.Runtime().Faults-faults)
	}
	if len(r.b.frames) != 0 {
		t.Error("faulted packet leaked to destination")
	}
}

// TestFrameHasOneFate: a capsule whose SET_DST names a port the switch does
// not have is dropped at egress — counted dropped once, and neither forwarded
// nor returned.
func TestFrameHasOneFate(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5, Opaque: uint32(r.sw.Runtime().Epoch(5))},
		Args:    [4]uint32{99, 0, 0, 0}, // no port 99
		Program: isa.MustAssemble("d", "MBR_LOAD 0\nSET_DST\nRETURN"),
	}
	a.Header.SetType(packet.TypeProgram)
	dropped, forwarded, returned := r.sw.FramesDropped, r.sw.FramesForwarded, r.sw.FramesReturned
	guarded, faults := r.sw.GuardDropped, r.sw.Runtime().Faults
	r.a.send(t, a, r.b.mac)
	r.eng.Run()
	if r.sw.FramesDropped != dropped+1 || r.sw.FramesForwarded != forwarded || r.sw.FramesReturned != returned {
		t.Errorf("dropped +%d forwarded +%d returned +%d, want +1 +0 +0",
			r.sw.FramesDropped-dropped, r.sw.FramesForwarded-forwarded, r.sw.FramesReturned-returned)
	}
	// The drop is at egress, after the guard passed the capsule and the
	// runtime ran it without a fault.
	if r.sw.GuardDropped != guarded || r.sw.Runtime().Faults != faults {
		t.Errorf("guard dropped +%d, faults +%d, want +0 +0",
			r.sw.GuardDropped-guarded, r.sw.Runtime().Faults-faults)
	}
	if len(r.b.frames) != 0 {
		t.Error("frame for a missing port reached host b")
	}
}

func TestBogusAllocRespFromHostDropped(t *testing.T) {
	r := newRig(t)
	a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, AllocResp: &packet.AllocResponse{}}
	a.Header.SetType(packet.TypeAllocResp)
	r.a.send(t, a, r.sw.MAC())
	r.eng.Run()
	if r.sw.FramesDropped != 1 {
		t.Errorf("dropped = %d", r.sw.FramesDropped)
	}
}

func TestSendToHostUnknownMAC(t *testing.T) {
	r := newRig(t)
	a := &packet.Active{Header: packet.ActiveHeader{FID: 1}}
	a.Header.SetType(packet.TypeControl)
	if err := r.sw.SendToHost(packet.MAC{0xEE}, a); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestDefaultCostsShape(t *testing.T) {
	if tableOpCost <= 0 || digestLatency <= 0 || computeBase <= 0 || computePerMut <= 0 {
		t.Errorf("costs: table op %v, digest %v, compute %v + %v per mutant",
			tableOpCost, digestLatency, computeBase, computePerMut)
	}
	// The half-window re-send must leave a client time to answer the
	// re-sent notice before the window times it out.
	if snapshotTimeout/2 <= digestLatency {
		t.Errorf("snapshot window %v leaves no time after its half-window re-send", snapshotTimeout)
	}
	// Table updates must be able to dominate compute for realistic op
	// counts (Figure 8a's finding).
	if tableOpCost*100 < computeBase {
		t.Error("table updates cannot dominate")
	}
}

// TestScrubWordEvictsOneBucket pins the bucket geometry ScrubWord relies on:
// the bucket at addr is word addr+i of the i-th access stage. Word addr of
// the later stages belongs to the buckets below — scrubbing it (as ScrubWord
// once did) wipes a neighbour's value while its key words keep matching.
func TestScrubWordEvictsOneBucket(t *testing.T) {
	r := newRig(t)
	rt := r.sw.Runtime()
	const fid, lo, hi, addr = 7, 100, 200, 150
	stages := []int{2, 5, 8}
	g := runtime.Grant{FID: fid}
	for _, s := range stages {
		g.Accesses = append(g.Accesses, runtime.AccessGrant{Logical: s, Lo: lo, Hi: hi})
	}
	if _, err := rt.InstallGrant(g); err != nil {
		t.Fatal(err)
	}
	for _, s := range stages {
		for w := uint32(lo); w < hi; w++ {
			rt.Device().Stage(s).Registers.Write(w, 0xC0DE)
		}
	}
	n, ok := r.ctrl.ScrubWord(fid, addr)
	if !ok || n != len(stages) {
		t.Fatalf("ScrubWord = (%d, %v), want (%d, true)", n, ok, len(stages))
	}
	for i, s := range stages {
		for w := uint32(lo); w < hi; w++ {
			want := uint32(0xC0DE)
			if w == addr+uint32(i) {
				want = 0
			}
			if got := rt.Device().Stage(s).Registers.Read(w); got != want {
				t.Errorf("stage %d word %d = %#x, want %#x", s, w, got, want)
			}
		}
	}
}

type discard struct{}

func (discard) Receive([]byte, *netsim.Port) {}

// TestSwitchReceiveAllocs gates the traversal the system path runs: a program
// capsule through Receive (cached decode, guard, compiled plan, output
// encode into the switch's wire buffer) and the two steps that put it on the
// wire and deliver it allocate nothing — nor does a FORK capsule, whose
// clone comes from the runtime's PHV pool — and neither does a plain L2
// frame, forwarded as received. The engine's arena slabs come once per few hundred
// frames, below AllocsPerRun's whole-allocation resolution.
func TestSwitchReceiveAllocs(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	rt := r.sw.Runtime()
	grant, ok := rt.RegionFor(5, 2)
	if !ok {
		t.Fatal("no region installed")
	}
	// Re-home both links on endpoints that do not decode what they receive.
	var in *netsim.Port
	for i, h := range []*host{r.a, r.b} {
		swp, _ := netsim.Connect(r.eng, r.sw, i+1, discard{}, 0, time.Microsecond, 0)
		r.sw.AddPort(swp, h.mac)
		if h == r.a {
			in = swp
		}
	}
	encode := func(a *packet.Active, ethType uint16) []byte {
		f := &packet.Frame{Eth: packet.EthHeader{Dst: r.b.mac, Src: r.a.mac, EtherType: ethType}, Active: a, Inner: []byte("payload")}
		raw, err := packet.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: 5, Opaque: uint32(rt.Epoch(5))},
		Args:    [4]uint32{0xFEED, 0, grant.Lo, 0},
		Program: isa.MustAssemble("w", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nRTS\nRETURN"),
	}
	a.Header.SetType(packet.TypeProgram)
	capsule, plain := encode(a, packet.EtherTypeActive), encode(nil, packet.EtherTypeIPv4)
	fa := *a
	fa.Program = isa.MustAssemble("f", "MBR_LOAD 0\nMAR_LOAD 2\nMEM_WRITE\nFORK\nRTS\nRETURN")
	forked := encode(&fa, packet.EtherTypeActive)

	traverse := func(raw []byte) func() {
		return func() {
			r.sw.Receive(raw, in)
			r.eng.Run()
		}
	}
	returned := r.sw.FramesReturned
	if n := testing.AllocsPerRun(200, traverse(capsule)); n != 0 {
		t.Errorf("program capsule: %v allocs per traversal, want 0", n)
	}
	if r.sw.FramesReturned == returned || rt.SpecializedRuns == 0 || r.sw.GuardDropped != 0 {
		t.Fatalf("capsule did not take the measured path: returned %d -> %d, specialized %d, guard-dropped %d",
			returned, r.sw.FramesReturned, rt.SpecializedRuns, r.sw.GuardDropped)
	}
	returned, recirc := r.sw.FramesReturned, rt.Device().Recirculations
	if n := testing.AllocsPerRun(200, traverse(forked)); n != 0 {
		t.Errorf("FORK capsule: %v allocs per traversal, want 0", n)
	}
	if r.sw.FramesReturned-returned != 2*201 || rt.Device().Recirculations == recirc || r.sw.GuardDropped != 0 {
		t.Fatalf("FORK capsule did not take the measured path: returned %d -> %d, recirculations %d -> %d, guard-dropped %d",
			returned, r.sw.FramesReturned, recirc, rt.Device().Recirculations, r.sw.GuardDropped)
	}
	forwarded := r.sw.FramesForwarded
	if n := testing.AllocsPerRun(200, traverse(plain)); n != 0 {
		t.Errorf("plain L2 frame: %v allocs per traversal, want 0", n)
	}
	if r.sw.FramesForwarded == forwarded {
		t.Fatal("plain frame was not forwarded")
	}
}

// tally counts the frames it receives without decoding them.
type tally struct{ frames int }

func (t *tally) Receive([]byte, *netsim.Port) { t.frames++ }

// TestDigestAllocs gates a control frame's whole digest cycle, from Receive
// to the controller acting on it: the switch decodes a request into its
// scratch, Digest copies it into a recycled job that is its own timer, and a
// snapshot-done digest is a typed timer on the controller. A client control
// frame allocates nothing; a retransmitted request allocates only the
// placement it is answered with (Allocator.PlacementFor's placement and
// access list). A heap copy of the frame, a closure per digest or a fresh job
// per request shows here.
func TestDigestAllocs(t *testing.T) {
	r := newRig(t)
	r.a.send(t, allocRequest(5, 2), r.sw.MAC())
	r.eng.Run()
	if _, ok := r.sw.Runtime().RegionFor(5, 2); !ok {
		t.Fatal("no region installed")
	}
	// Re-home the client's link on an endpoint that counts the answers.
	answers := &tally{}
	in, _ := netsim.Connect(r.eng, r.sw, 1, answers, 0, time.Microsecond, 0)
	r.sw.AddPort(in, r.a.mac)

	snapDone := &packet.Active{Header: packet.ActiveHeader{FID: 5, Flags: packet.FlagSnapDone}}
	snapDone.Header.SetType(packet.TypeControl)
	const runs = 100
	for _, tc := range []struct {
		name string
		a    *packet.Active
		want float64
	}{
		{"client control frame", snapDone, 0},         // was 1: the continuation's closure
		{"allocation request", allocRequest(5, 2), 2}, // was 3 (request, accesses, closure): now the answer's placement and accesses
	} {
		raw, err := packet.EncodeFrame(&packet.Frame{Eth: packet.EthHeader{Dst: r.sw.MAC(), Src: r.a.mac, EtherType: packet.EtherTypeActive}, Active: tc.a})
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(runs, func() { r.sw.Receive(raw, in); r.eng.Run() })
		if n > tc.want {
			t.Errorf("%s: %v allocs per digest, want <= %v", tc.name, n, tc.want)
		}
		t.Logf("%s: %v allocs per digest", tc.name, n)
	}
	// Every digest reached the controller: each retransmitted request (and
	// AllocsPerRun's warm-up call) is answered from the books.
	if r.ctrl.DigestsDropped != 0 || answers.frames != runs+1 {
		t.Errorf("digests dropped %d, requests answered %d, want 0 and %d", r.ctrl.DigestsDropped, answers.frames, runs+1)
	}
}

// TestNewNodeRejectsPipelineMismatch: an allocator configured for another
// pipeline than the device's would grant stages or words the device lacks;
// assembly refuses the pair, naming both values. A configuration one
// component rejects on its own is refused with that component's error.
func TestNewNodeRejectsPipelineMismatch(t *testing.T) {
	for _, c := range []struct {
		field  string
		mutate func(*NodeConfig)
		want   string
	}{
		{"NumStages", func(c *NodeConfig) { c.RMT.NumStages = 19 }, "NumStages is 20 but the pipeline's is 19"},
		{"NumIngress", func(c *NodeConfig) { c.Alloc.NumIngress = 9 }, "NumIngress is 9 but the pipeline's is 10"},
		{"StageWords", func(c *NodeConfig) { c.RMT.StageWords = 96 * 256 }, "StageWords is 94208 but the pipeline's is 24576"},
		{"BlockWords", func(c *NodeConfig) { c.Alloc.BlockWords = 0 }, "alloc: bad config"},
	} {
		cfg := DefaultNodeConfig()
		c.mutate(&cfg)
		if _, err := NewNode(netsim.NewEngine(), cfg, packet.MAC{2}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to say %q", c.field, err, c.want)
		}
	}
}

// TestAllocFamiliesFollowTheLiveBooks: the allocator families the
// controller registers read whichever books are current — a crash's fresh
// allocator, then the books Restart recovers from the tables — while the
// re-layout counter stays monotone across the crash and a departed tenant's
// block gauge reads 0 instead of vanishing.
func TestAllocFamiliesFollowTheLiveBooks(t *testing.T) {
	r := newRig(t)
	reg := telemetry.NewRegistry()
	r.ctrl.AttachTelemetry(reg)
	scrape := func(name, labels string) float64 {
		t.Helper()
		for _, m := range reg.Snapshot().Metrics {
			for _, smp := range m.Samples {
				if m.Name == name && smp.Labels == labels {
					return smp.Value
				}
			}
		}
		t.Fatalf("no sample %s{%s}", name, labels)
		return 0
	}
	relayouts := func() float64 {
		return scrape("activermt_alloc_relayouts_total", `kind="inplace"`) + scrape("activermt_alloc_relayouts_total", `kind="full"`)
	}
	for _, fid := range []uint16{5, 6} {
		r.a.send(t, allocRequest(fid, 2), r.sw.MAC())
		r.eng.Run()
	}
	app, ok := r.ctrl.Allocator().App(5)
	if !ok || scrape("activermt_alloc_tenants", "") != 2 || scrape("activermt_alloc_tenant_blocks", `fid="5"`) != float64(app.TotalBlocks()) {
		t.Fatalf("admissions not read from the books (resident %v)", ok)
	}
	if scrape("activermt_ctrl_jobs_total", `kind="admit"`) != 2 {
		t.Fatalf("jobs family does not count the two admission records")
	}
	inplace, full := r.ctrl.Allocator().Relayouts()
	before := relayouts()
	if before == 0 || before != float64(inplace+full) {
		t.Fatalf("relayouts family reads %v, the books counted %d", before, inplace+full)
	}

	r.ctrl.Crash()
	if scrape("activermt_alloc_tenants", "") != 0 || scrape("activermt_alloc_tenant_blocks", `fid="5"`) != 0 {
		t.Fatal("after a crash the families still read the dead books")
	}
	if relayouts() != before || scrape("activermt_ctrl_crashes_total", "") != 1 {
		t.Fatalf("across the crash: relayouts %v (was %v), crashes %v", relayouts(), before, scrape("activermt_ctrl_crashes_total", ""))
	}
	r.ctrl.Restart()
	if scrape("activermt_alloc_tenants", "") != 2 || scrape("activermt_alloc_tenant_blocks", `fid="5"`) != float64(app.TotalBlocks()) {
		t.Fatal("recovered books not read after the restart")
	}
}

// TestNodeCheck: a fresh node holds every row Check audits, and a region
// installed behind the allocator's back for a FID that was never admitted
// is reported under row P1 (the isolation audit's orphan region).
func TestNodeCheck(t *testing.T) {
	n, err := NewNode(netsim.NewEngine(), DefaultNodeConfig(), packet.MAC{2})
	if err != nil {
		t.Fatal(err)
	}
	if vs := n.Check(); vs != nil {
		t.Fatalf("fresh node: %v", vs)
	}
	if err := n.RT.Device().Stage(2).Prot.Install(rmt.Region{FID: 99, Lo: 0, Hi: 16}); err != nil {
		t.Fatal(err)
	}
	vs := n.Check()
	if len(vs) != 1 || vs[0].Row != "P1" || !strings.Contains(vs[0].Detail, "orphan-region") {
		t.Fatalf("orphan region: %v, want one P1 orphan-region violation", vs)
	}
}
