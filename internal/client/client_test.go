package client

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
)

var queryProg = isa.MustAssemble("q", `
MAR_LOAD 2
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

var writeProg = isa.MustAssemble("w", `
MAR_LOAD 2
MEM_WRITE
MBR_LOAD 1
NOP
MEM_WRITE
MBR_LOAD 3
NOP
RTS
MEM_WRITE
RETURN
`)

func cacheService() *Service {
	return &Service{
		Name: "cache",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main":  queryProg,
			"write": writeProg,
		},
		Specs:   []compiler.AccessSpec{{AlignGroup: 1}, {AlignGroup: 1}, {AlignGroup: 1}},
		Elastic: true,
	}
}

// capture is a fake switch endpoint recording frames the client sends.
type capture struct {
	frames []*packet.Frame
}

func (c *capture) Receive(frame []byte, p *netsim.Port) {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return
	}
	c.frames = append(c.frames, f)
}

func newTestClient(t *testing.T, svc *Service) (*Client, *capture, *netsim.Engine) {
	t.Helper()
	eng := netsim.NewEngine()
	cap := &capture{}
	cl := New(eng, 7, packet.MAC{1}, packet.MAC{0xFF}, svc)
	_, cp := netsim.Connect(eng, cap, 0, cl, 0, 0, 0)
	cl.Attach(cp)
	return cl, cap, eng
}

func TestServiceConstraintsMergesTemplates(t *testing.T) {
	svc := cacheService()
	cons, err := svc.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cons.Accesses) != 3 || cons.IngressIdx != 7 {
		t.Fatalf("constraints: %+v", cons)
	}
	// ProgLen is the max across templates (query: 11, write: 10).
	if cons.ProgLen != 11 {
		t.Errorf("ProgLen = %d", cons.ProgLen)
	}
}

// TestServiceConstraintsFoldsTranslations: a service's translate slots are
// the union over its templates, and they reach the switch in the request.
func TestServiceConstraintsFoldsTranslations(t *testing.T) {
	svc := cacheService()
	svc.Templates["xlate"] = isa.MustAssemble("xlate", `
MAR_LOAD 2
MEM_READ
NOP
ADDR_OFFSET
MEM_READ
NOP
ADDR_MASK
NOP
MEM_WRITE
RETURN
`)
	cons, err := svc.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint8{0, 0b0001, 0b0010} {
		if got := cons.Accesses[i].Translate; got != want {
			t.Errorf("access %d: translate %04b, want %04b", i, got, want)
		}
	}
	req, err := cons.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	back, err := alloc.FromRequest(req)
	if err != nil || !slices.Equal(back.Accesses, cons.Accesses) {
		t.Errorf("request carries %+v (%v), want %+v", back.Accesses, err, cons.Accesses)
	}

	svc.Templates["far"] = isa.MustAssemble("far", "ADDR_MASK\nMEM_READ\nNOP\nNOP\nMEM_READ\nNOP\nNOP\nNOP\nMEM_WRITE\nADDR_OFFSET\nRETURN")
	if _, err := svc.Constraints(); !errors.Is(err, compiler.ErrTranslateReach) {
		t.Errorf("template translating after its last access: %v, want ErrTranslateReach", err)
	}
}

func TestServiceConstraintsRejectsSkewedTemplates(t *testing.T) {
	svc := cacheService()
	svc.Templates["bad"] = isa.MustAssemble("bad", "NOP\nMEM_READ\nRETURN")
	if _, err := svc.Constraints(); err == nil {
		t.Error("template with different access count accepted")
	}
	svc2 := cacheService()
	svc2.Templates["bad"] = isa.MustAssemble("bad", `
NOP
NOP
MEM_READ
NOP
MEM_READ
NOP
NOP
NOP
MEM_READ
RETURN
`)
	if _, err := svc2.Constraints(); err == nil {
		t.Error("template with shifted accesses accepted")
	}
	svc3 := cacheService()
	svc3.Main = "nope"
	if _, err := svc3.Constraints(); err == nil {
		t.Error("missing main template accepted")
	}
}

func TestRequestAllocationSendsRequest(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if cl.State() != Negotiating {
		t.Errorf("state = %v", cl.State())
	}
	if len(cap.frames) != 1 {
		t.Fatalf("frames = %d", len(cap.frames))
	}
	f := cap.frames[0]
	if f.Active == nil || f.Active.Header.Type() != packet.TypeAllocReq {
		t.Fatalf("frame: %+v", f)
	}
	if f.Active.AllocReq.ProgLen != 11 || !f.Active.AllocReq.Elastic {
		t.Errorf("request: %+v", f.Active.AllocReq)
	}
}

// respond injects an allocation response for the mutant index (mc policy)
// with identical grants in the mutant's stages.
func respond(t *testing.T, cl *Client, eng *netsim.Engine, cap *capture, mutantIdx int, lo, hi uint32, flags uint16) {
	t.Helper()
	cons, err := cl.Service().Constraints()
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := alloc.DefaultShape().Mutants(cons, alloc.MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	resp := &packet.AllocResponse{MutantIndex: uint32(mutantIdx)}
	for _, logical := range ms[mutantIdx] {
		resp.Grants[logical%20] = packet.StageGrant{Start: lo, End: hi}
	}
	a := &packet.Active{
		Header:    packet.ActiveHeader{FID: cl.FID(), Flags: packet.FlagFromSwch | flags},
		AllocResp: resp,
	}
	a.Header.SetType(packet.TypeAllocResp)
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive},
		Active: a,
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver through the capture's port peer (the client's port).
	cl.Receive(raw, nil)
	eng.Run()
}

func TestAllocationResponseSynthesizesMutant(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 3, 0, 1024, 0)
	if !cl.Operational() {
		t.Fatalf("state = %v", cl.State())
	}
	pl := cl.Placement()
	if pl == nil || pl.MutantIdx != 3 {
		t.Fatalf("placement: %+v", pl)
	}
	// Both templates synthesized against the same mutant.
	q, w := cl.Program("main"), cl.Program("write")
	if q == nil || w == nil {
		t.Fatal("programs not synthesized")
	}
	qa, wa := q.MemoryAccessIndices(), w.MemoryAccessIndices()
	for i := range qa {
		if qa[i] != wa[i] || qa[i] != pl.Mutant[i] {
			t.Errorf("access %d: query %d write %d mutant %d", i, qa[i], wa[i], pl.Mutant[i])
		}
	}
}

func TestAllocationFailureCallback(t *testing.T) {
	svc := cacheService()
	failed := false
	svc.OnFailed = func(c *Client) { failed = true }
	cl, _, eng := newTestClient(t, svc)
	_ = cl.RequestAllocation()

	a := &packet.Active{
		Header:    packet.ActiveHeader{FID: cl.FID(), Flags: packet.FlagFromSwch | packet.FlagFailed},
		AllocResp: &packet.AllocResponse{},
	}
	a.Header.SetType(packet.TypeAllocResp)
	f := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive}, Active: a}
	raw, _ := packet.EncodeFrame(f)
	cl.Receive(raw, nil)
	eng.Run()
	if !failed || cl.State() != Idle {
		t.Errorf("failed=%v state=%v", failed, cl.State())
	}
}

func TestSendProgramPausedOutsideOperational(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	// Not operational: the payload goes out unactivated.
	if err := cl.SendProgram("main", [4]uint32{1, 2, 3, 4}, 0, []byte("data"), packet.MAC{9}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(cap.frames) != 1 || cap.frames[0].Active != nil {
		t.Fatalf("expected one plain frame, got %+v", cap.frames)
	}
	if cl.SentUnactivated != 1 {
		t.Errorf("SentUnactivated = %d", cl.SentUnactivated)
	}

	// Operational: activated.
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	if err := cl.SendProgram("main", [4]uint32{1, 2, 3, 4}, 0, []byte("data"), packet.MAC{9}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	last := cap.frames[len(cap.frames)-1]
	if last.Active == nil || last.Active.Header.Type() != packet.TypeProgram {
		t.Fatalf("expected activated frame, got %+v", last)
	}
	if last.Active.Program.Len() != cl.Program("main").Len() {
		t.Error("wrong program attached")
	}
}

func TestReallocationFlow(t *testing.T) {
	svc := cacheService()
	reallocCalls := 0
	operational := 0
	svc.OnReallocate = func(c *Client, oldPl, newPl *alloc.Placement, done func()) {
		reallocCalls++
		if oldPl == nil || newPl == nil {
			t.Error("missing placements in realloc callback")
		}
		if newPl.Accesses[0].Range.Lo != 512 {
			t.Errorf("new placement: %+v", newPl.Accesses[0])
		}
		done()
	}
	svc.OnOperational = func(c *Client) { operational++ }
	cl, cap, eng := newTestClient(t, svc)
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	if operational != 1 {
		t.Fatalf("operational callbacks = %d", operational)
	}

	// Reallocation notice: same mutant, moved region.
	respond(t, cl, eng, cap, 0, 512, 1024, packet.FlagRealloc)
	if cl.State() != MemMgmt {
		t.Fatalf("state = %v, want memory-management", cl.State())
	}
	if reallocCalls != 1 {
		t.Fatalf("realloc callbacks = %d", reallocCalls)
	}
	// The done() callback sent a snapshot-complete control packet.
	last := cap.frames[len(cap.frames)-1]
	if last.Active == nil || last.Active.Header.Flags&packet.FlagSnapDone == 0 {
		t.Fatalf("expected SnapDone, got %+v", last.Active)
	}
	// Placement already re-linked to the new region.
	if cl.Placement().Accesses[0].Range.Lo != 512 {
		t.Errorf("placement not updated: %+v", cl.Placement().Accesses[0])
	}

	// Reactivation notice resumes operation.
	ack := &packet.Active{Header: packet.ActiveHeader{
		FID:   cl.FID(),
		Flags: packet.FlagFromSwch | packet.FlagDone | packet.FlagRealloc,
	}}
	ack.Header.SetType(packet.TypeControl)
	f := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive}, Active: ack}
	raw, _ := packet.EncodeFrame(f)
	cl.Receive(raw, nil)
	eng.Run()
	if !cl.Operational() || operational != 2 {
		t.Errorf("state=%v operational=%d", cl.State(), operational)
	}
	if cl.Reallocations != 1 {
		t.Errorf("Reallocations = %d", cl.Reallocations)
	}
}

// control delivers a switch control frame with the given flags to cl.
func control(t *testing.T, cl *Client, flags uint16) {
	t.Helper()
	a := &packet.Active{Header: packet.ActiveHeader{FID: cl.FID(), Flags: packet.FlagFromSwch | flags}}
	a.Header.SetType(packet.TypeControl)
	raw, err := packet.EncodeFrame(&packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive}, Active: a})
	if err != nil {
		t.Fatal(err)
	}
	cl.Receive(raw, nil)
}

// TestReallocKeepsLinkedProgramsWhenMutantUnchanged: a reallocation notice
// that moves the regions under the same mutant keeps the synthesized programs
// and their rendered frames — only the placement is new; a notice with an
// empty grant is still refused, the placement kept and the switch released.
// The programs outlive a release: a re-admission on the same mutant keeps
// them, one on another mutant synthesizes afresh.
func TestReallocKeepsLinkedProgramsWhenMutantUnchanged(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 2, 0, 512, 0)
	prog, wire := cl.Program("main"), slices.Clone(cl.progs["write"].wire)
	snapDones := func() (n int) {
		for _, f := range cap.frames {
			if f.Active != nil && f.Active.Header.Flags&packet.FlagSnapDone != 0 {
				n++
			}
		}
		return n
	}

	respond(t, cl, eng, cap, 2, 512, 1024, packet.FlagRealloc)
	if cl.Program("main") != prog || !bytes.Equal(cl.progs["write"].wire, wire) {
		t.Error("a notice that moved only regions re-synthesized the programs")
	}
	pl := cl.Placement()
	if pl.MutantIdx != 2 || pl.Accesses[0].Range != (alloc.WordRange{Lo: 512, Hi: 1024}) {
		t.Fatalf("placement after the notice: %+v", pl)
	}
	if snapDones() != 1 {
		t.Fatalf("%d snapshot-done frames after one notice", snapDones())
	}
	control(t, cl, packet.FlagDone|packet.FlagRealloc)

	respond(t, cl, eng, cap, 2, 1024, 1024, packet.FlagRealloc)
	if cl.Placement() != pl || cl.Program("main") != prog {
		t.Errorf("a notice with an empty grant was applied: %+v", cl.Placement())
	}
	if snapDones() != 2 {
		t.Errorf("a refused notice did not release the switch (%d snapshot-done frames)", snapDones())
	}
	control(t, cl, packet.FlagDone|packet.FlagRealloc)

	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	control(t, cl, packet.FlagDone|packet.FlagRelease)
	if cl.Program("main") != nil {
		t.Error("a released client still names a program")
	}
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 2, 0, 512, 0)
	if !cl.Operational() || cl.Program("main") != prog {
		t.Errorf("re-admission on the released mutant re-synthesized the programs (state %v)", cl.State())
	}

	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	control(t, cl, packet.FlagDone|packet.FlagRelease)
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 3, 0, 512, 0)
	if !cl.Operational() || cl.Program("main") == prog {
		t.Errorf("re-admission on another mutant kept the old programs (state %v)", cl.State())
	}
}

func TestReleaseFlow(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	if err := cl.Release(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	last := cap.frames[len(cap.frames)-1]
	if last.Active == nil || last.Active.Header.Flags&packet.FlagRelease == 0 {
		t.Fatal("release packet not sent")
	}
	// Release ack clears state.
	ack := &packet.Active{Header: packet.ActiveHeader{
		FID:   cl.FID(),
		Flags: packet.FlagFromSwch | packet.FlagDone | packet.FlagRelease,
	}}
	ack.Header.SetType(packet.TypeControl)
	f := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive}, Active: ack}
	raw, _ := packet.EncodeFrame(f)
	cl.Receive(raw, nil)
	if cl.State() != Idle || cl.Placement() != nil {
		t.Errorf("state=%v placement=%v", cl.State(), cl.Placement())
	}
}

func TestHandlerReceivesDataFrames(t *testing.T) {
	cl, _, _ := newTestClient(t, cacheService())
	// The frame is the handler's for the duration of the call: keep copies.
	var inner []byte
	var fid uint16
	calls := 0
	cl.Handler = func(c *Client, f *packet.Frame) {
		calls++
		inner = append([]byte(nil), f.Inner...)
		if f.Active != nil {
			fid = f.Active.Header.FID
		}
	}
	f := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), EtherType: packet.EtherTypeIPv4}, Inner: []byte{1, 2}}
	raw, _ := packet.EncodeFrame(f)
	cl.Receive(raw, nil)
	if calls != 1 || len(inner) != 2 {
		t.Fatal("plain frame not delivered to handler")
	}
	// Frames for other FIDs are delivered, not consumed as protocol.
	a := &packet.Active{Header: packet.ActiveHeader{FID: cl.FID() + 1}, Program: &isa.Program{}}
	a.Header.SetType(packet.TypeProgram)
	f2 := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), EtherType: packet.EtherTypeActive}, Active: a}
	raw2, _ := packet.EncodeFrame(f2)
	cl.Receive(raw2, nil)
	if calls != 2 || fid != cl.FID()+1 {
		t.Fatal("foreign-FID frame not delivered to handler")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Idle: "idle", Negotiating: "negotiating",
		Operational: "operational", MemMgmt: "memory-management",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestUnattachedClientErrors(t *testing.T) {
	cl := New(netsim.NewEngine(), 1, packet.MAC{1}, packet.MAC{2}, cacheService())
	if err := cl.RequestAllocation(); err == nil {
		t.Error("unattached RequestAllocation succeeded")
	}
	if err := cl.SendPlain([]byte{1}, packet.MAC{9}); err == nil {
		t.Error("unattached SendPlain succeeded")
	}
}

func TestStatelessServicePlacement(t *testing.T) {
	svc := &Service{
		Name: "route", Main: "main",
		Templates: map[string]*isa.Program{"main": isa.MustAssemble("r", "COPY_HASHDATA_5TUPLE\nHASH 1\nRETURN")},
	}
	cl, _, eng := newTestClient(t, svc)
	_ = cl.RequestAllocation()
	// Stateless response: empty grants, mutant 0.
	a := &packet.Active{
		Header:    packet.ActiveHeader{FID: cl.FID(), Flags: packet.FlagFromSwch},
		AllocResp: &packet.AllocResponse{},
	}
	a.Header.SetType(packet.TypeAllocResp)
	f := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive}, Active: a}
	raw, _ := packet.EncodeFrame(f)
	cl.Receive(raw, nil)
	eng.Run()
	if !cl.Operational() {
		t.Fatalf("state = %v", cl.State())
	}
	if cl.Program("main") == nil {
		t.Fatal("stateless program missing")
	}
	if len(cl.Placement().Accesses) != 0 {
		t.Errorf("stateless placement has accesses: %+v", cl.Placement())
	}
}

func TestRetryWhileNegotiating(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	cl.RetryAfter = 10 * time.Millisecond
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	// No response arrives: the request is retransmitted.
	eng.RunUntil(35 * time.Millisecond)
	reqs := 0
	for _, f := range cap.frames {
		if f.Active != nil && f.Active.Header.Type() == packet.TypeAllocReq {
			reqs++
		}
	}
	if reqs < 3 {
		t.Fatalf("requests sent = %d, want retries", reqs)
	}
	if cl.Retries == 0 {
		t.Error("retry counter not incremented")
	}
	// Once answered, retries stop.
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	before := len(cap.frames)
	eng.RunUntil(eng.Now() + 100*time.Millisecond)
	for _, f := range cap.frames[before:] {
		if f.Active != nil && f.Active.Header.Type() == packet.TypeAllocReq {
			t.Fatal("retry after operational")
		}
	}
}

func TestStaleResponseIgnoredAfterRealloc(t *testing.T) {
	// A realloc notice must be processed even if the client is mid-flight;
	// and duplicate (stale) responses must not corrupt state.
	cl, cap, eng := newTestClient(t, cacheService())
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	respond(t, cl, eng, cap, 0, 0, 512, 0) // duplicate plain response
	if !cl.Operational() {
		t.Fatalf("state = %v", cl.State())
	}
	if cl.Placement().Accesses[0].Range.Hi != 512 {
		t.Error("duplicate response corrupted placement")
	}
}

func TestSendProgramUnknownTemplate(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	// Unknown template name falls back to plain forwarding.
	if err := cl.SendProgram("nope", [4]uint32{}, 0, []byte("x"), packet.MAC{9}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	last := cap.frames[len(cap.frames)-1]
	if last.Active != nil {
		t.Error("unknown template sent as active")
	}
}

// timedCapture records the virtual arrival time of each allocation request.
type timedCapture struct {
	eng   *netsim.Engine
	times []time.Duration
}

func (tc *timedCapture) Receive(frame []byte, p *netsim.Port) {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return
	}
	if f.Active != nil && f.Active.Header.Type() == packet.TypeAllocReq {
		tc.times = append(tc.times, tc.eng.Now())
	}
}

func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	eng := netsim.NewEngine()
	tc := &timedCapture{eng: eng}
	cl := New(eng, 7, packet.MAC{1}, packet.MAC{0xFF}, cacheService())
	_, cp := netsim.Connect(eng, tc, 0, cl, 0, 0, 0)
	cl.Attach(cp)
	cl.RetryAfter = 10 * time.Millisecond
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1200 * time.Millisecond)
	if len(tc.times) < 8 {
		t.Fatalf("requests = %d, want retries", len(tc.times))
	}
	// Gaps double (10, 20, 40, 80) then cap at 16x = 160ms; jitter is
	// +/-10%, so bound each gap loosely.
	gaps := make([]time.Duration, 0, len(tc.times)-1)
	for i := 1; i < len(tc.times); i++ {
		gaps = append(gaps, tc.times[i]-tc.times[i-1])
	}
	within := func(g, want time.Duration) bool {
		lo := want - want/5
		hi := want + want/5
		return g >= lo && g <= hi
	}
	for i, g := range gaps {
		want := 160 * time.Millisecond
		if i < 4 {
			want = 10 * time.Millisecond << i
		}
		if !within(g, want) {
			t.Errorf("gap %d = %v, want ~%v (x2 growth, capped at 16x)", i, g, want)
		}
	}
	if cl.PhaseRetries != cl.Retries {
		t.Errorf("PhaseRetries = %d, Retries = %d", cl.PhaseRetries, cl.Retries)
	}
	// A fresh request resets the phase counter and the interval.
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if cl.PhaseRetries != 0 {
		t.Errorf("PhaseRetries after new request = %d", cl.PhaseRetries)
	}
}

func TestReallocTimeoutEscapesStuckWindow(t *testing.T) {
	cl, cap, eng := newTestClient(t, cacheService())
	cl.RetryAfter = 20 * time.Millisecond
	cl.ReallocTimeout = 50 * time.Millisecond
	_ = cl.RequestAllocation()
	respond(t, cl, eng, cap, 0, 0, 512, 0)
	if !cl.Operational() {
		t.Fatalf("state = %v", cl.State())
	}
	// Realloc notice arrives but the reactivation notice never does (lost
	// frame / dead controller): the client must not stay stuck in the
	// memory-management window. Deliver the notice without draining the
	// event queue (the escape restarts the retry chain, which never runs
	// dry under Run).
	cons, err := cl.Service().Constraints()
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := alloc.DefaultShape().Mutants(cons, alloc.MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	resp := &packet.AllocResponse{MutantIndex: 0}
	for _, logical := range ms[0] {
		resp.Grants[logical%20] = packet.StageGrant{Start: 512, End: 1024}
	}
	a := &packet.Active{
		Header:    packet.ActiveHeader{FID: cl.FID(), Flags: packet.FlagFromSwch | packet.FlagRealloc},
		AllocResp: resp,
	}
	a.Header.SetType(packet.TypeAllocResp)
	f := &packet.Frame{Eth: packet.EthHeader{Dst: cl.MAC(), Src: packet.MAC{0xFF}, EtherType: packet.EtherTypeActive}, Active: a}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	cl.Receive(raw, nil)
	if cl.State() != MemMgmt {
		t.Fatalf("state = %v", cl.State())
	}
	eng.RunUntil(eng.Now() + 200*time.Millisecond)
	if cl.ReallocTimeouts == 0 {
		t.Fatal("realloc timeout never fired")
	}
	if cl.State() != Negotiating {
		t.Fatalf("state = %v, want negotiating after escape", cl.State())
	}
	reqs := 0
	for _, f := range cap.frames {
		if f.Active != nil && f.Active.Header.Type() == packet.TypeAllocReq {
			reqs++
		}
	}
	if reqs < 2 {
		t.Fatalf("requests = %d, want re-request after escape", reqs)
	}
}

// TestGrantMemoFollowsPipelineAndRequest: the mutant list is enumerated once
// per (policy bit, Pipeline value) — Pipeline is assigned after New, so a
// changed value must be re-enumerated, never answered from the old list —
// and the demands are re-read on every request, because a service's may
// change between two requests (fabric placement halves them).
func TestGrantMemoFollowsPipelineAndRequest(t *testing.T) {
	svc := cacheService()
	cl, cap, eng := newTestClient(t, svc)
	for _, pipe := range []Pipeline{alloc.DefaultShape(), {NumStages: 20, NumIngress: 12, MaxPasses: 2}, alloc.DefaultShape()} {
		cl.Pipeline = pipe
		for _, policyBit := range []uint32{0, packet.PolicyBitLC, 0} {
			pol := alloc.MostConstrained
			if policyBit != 0 {
				pol = alloc.LeastConstrained
			}
			cons, err := svc.Constraints()
			if err != nil {
				t.Fatal(err)
			}
			ms, _, err := pipe.Mutants(cons, pol)
			if err != nil {
				t.Fatal(err)
			}
			idx := len(ms) - 1 // the end of the list is where the shapes differ
			want := ms[idx]
			resp := &packet.AllocResponse{MutantIndex: uint32(idx) | policyBit}
			for _, logical := range want {
				resp.Grants[logical%pipe.NumStages] = packet.StageGrant{Start: 0, End: 256}
			}
			pl, _, err := cl.decode(resp)
			if err != nil {
				t.Fatalf("pipeline %+v policy bit %#x: %v", pipe, policyBit, err)
			}
			for i := range want {
				if pl.Mutant[i] != want[i] || pl.Accesses[i].Logical != want[i] {
					t.Fatalf("pipeline %+v policy bit %#x: mutant %v, want %v", pipe, policyBit, pl.Mutant, want)
				}
			}
		}
	}

	for _, demand := range []int{8, 4} {
		for i := range svc.Specs {
			svc.Specs[i].Demand = demand
		}
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		req := cap.frames[len(cap.frames)-1].Active.AllocReq
		if int(req.Accesses[0].Demand) != demand {
			t.Errorf("request carries demand %d, want %d", req.Accesses[0].Demand, demand)
		}
	}
}
