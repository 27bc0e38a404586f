package guard

import (
	"testing"
	"time"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
)

// fakeClock is a settable virtual-time source.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// fakeEscalator records quarantine/evict decisions.
type fakeEscalator struct {
	quarantined []uint16
	evicted     []uint16
}

func (e *fakeEscalator) GuardQuarantine(fid uint16) { e.quarantined = append(e.quarantined, fid) }
func (e *fakeEscalator) GuardEvict(fid uint16)      { e.evicted = append(e.evicted, fid) }

func newTestGuard(t *testing.T) (*Guard, *runtime.Runtime, *fakeClock, *fakeEscalator) {
	t.Helper()
	cfg := rmt.DefaultConfig()
	cfg.StageWords = 4096
	rt, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{}
	esc := &fakeEscalator{}
	g := New(rt, clk.Now, esc)
	return g, rt, clk, esc
}

func installGrant(t *testing.T, rt *runtime.Runtime, fid uint16, lo, hi uint32) {
	t.Helper()
	g := runtime.Grant{FID: fid, Accesses: []runtime.AccessGrant{{Logical: 1, Lo: lo, Hi: hi}}}
	if _, err := rt.InstallGrant(g); err != nil {
		t.Fatal(err)
	}
}

// capsule builds a program capsule claiming fid with the given epoch echo.
func capsule(fid uint16, epoch uint8, instrs ...isa.Instruction) *packet.Active {
	if instrs == nil {
		instrs = []isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpReturn}}
	}
	a := &packet.Active{
		Header:  packet.ActiveHeader{FID: fid, Opaque: uint32(epoch)},
		Program: &isa.Program{Instrs: instrs},
	}
	a.Header.SetType(packet.TypeProgram)
	return a
}

func TestEscalationLadderAndCallbacks(t *testing.T) {
	g, rt, _, esc := newTestGuard(t)
	const fid = 5
	installGrant(t, rt, fid, 0, 64)

	// The rung each score reaches: 3 warns, 8 rate-limits, 16 quarantines,
	// 32 evicts.
	rungs := []struct {
		at    int
		state TenantState
	}{{0, Healthy}, {3, Warned}, {8, RateLimited}, {16, Quarantined}, {32, Evicted}}
	for n := 1; n <= 32; n++ {
		g.MemFault(fid)
		want := Healthy
		for _, r := range rungs {
			if n >= r.at {
				want = r.state
			}
		}
		if got := g.Tenant(fid).State(); got != want {
			t.Fatalf("after %d violations: state = %v, want %v", n, got, want)
		}
	}
	if len(esc.quarantined) != 1 || esc.quarantined[0] != fid {
		t.Errorf("quarantine callbacks = %v, want [%d]", esc.quarantined, fid)
	}
	if len(esc.evicted) != 1 || esc.evicted[0] != fid {
		t.Errorf("evict callbacks = %v, want [%d]", esc.evicted, fid)
	}
	// History walked every rung exactly once.
	led := g.Tenant(fid)
	var states []TenantState
	for _, tr := range led.History {
		states = append(states, tr.To)
	}
	wantHist := []TenantState{Warned, RateLimited, Quarantined, Evicted}
	if len(states) != len(wantHist) {
		t.Fatalf("history = %v, want %v", states, wantHist)
	}
	for i := range wantHist {
		if states[i] != wantHist[i] {
			t.Fatalf("history = %v, want %v", states, wantHist)
		}
	}
	if led.Count(KindMemFault) != 32 {
		t.Errorf("mem-fault count = %d, want 32", led.Count(KindMemFault))
	}
}

func TestHysteresisOneStrayNeverEscalates(t *testing.T) {
	g, rt, clk, esc := newTestGuard(t)
	const fid = 6
	installGrant(t, rt, fid, 0, 64)

	// One violation per 2 windows: the window never holds more than one
	// event, so the tenant stays Healthy forever.
	for i := 0; i < 20; i++ {
		g.MemFault(fid)
		clk.now += 2 * EscalationWindow
	}
	if got := g.Tenant(fid).State(); got != Healthy {
		t.Errorf("state after slow drip = %v, want Healthy", got)
	}
	if len(esc.quarantined)+len(esc.evicted) != 0 {
		t.Error("slow drip must not reach the escalator")
	}
}

func TestWarnAutoHealsWhenWindowDrains(t *testing.T) {
	g, rt, clk, _ := newTestGuard(t)
	const fid = 7
	installGrant(t, rt, fid, 0, 64)
	epoch := rt.Epoch(fid)

	for i := 0; i < warnAt; i++ {
		g.MemFault(fid)
	}
	if g.Tenant(fid).State() != Warned {
		t.Fatalf("state = %v, want Warned", g.Tenant(fid).State())
	}
	// Window drains; the next authenticated capsule heals the tenant.
	clk.now += EscalationWindow + time.Millisecond
	if !g.CheckProgram(capsule(fid, epoch), 1) {
		t.Fatal("clean capsule refused")
	}
	if g.Tenant(fid).State() != Healthy {
		t.Errorf("state = %v, want Healthy after window drained", g.Tenant(fid).State())
	}
	last := g.Tenant(fid).History[len(g.Tenant(fid).History)-1]
	if last.Trigger != KindRecovered {
		t.Errorf("heal trigger = %v, want recovered", last.Trigger)
	}
}

func TestRateLimitShedsButQuarantineSticks(t *testing.T) {
	g, rt, _, _ := newTestGuard(t)
	const fid = 8
	installGrant(t, rt, fid, 0, 64)
	epoch := rt.Epoch(fid)

	for i := 0; i < rateLimitAt; i++ {
		g.MemFault(fid)
	}
	if g.Tenant(fid).State() != RateLimited {
		t.Fatalf("state = %v, want RateLimited", g.Tenant(fid).State())
	}
	// One capsule in four passes; sheds are not violations.
	passed := 0
	for i := 0; i < 12; i++ {
		if g.CheckProgram(capsule(fid, epoch), 1) {
			passed++
		}
	}
	if passed != 3 {
		t.Errorf("passed = %d of 12 at pass rate 1/4, want 3", passed)
	}
	if g.Tenant(fid).Score() != rateLimitAt {
		t.Errorf("score = %d, want %d (sheds are not violations)", g.Tenant(fid).Score(), rateLimitAt)
	}

	// Eight more faults quarantine; then every capsule is refused and counts
	// as a fresh violation.
	for i := rateLimitAt; i < quarantineAt; i++ {
		g.MemFault(fid)
	}
	if g.Tenant(fid).State() != Quarantined {
		t.Fatalf("state = %v, want Quarantined", g.Tenant(fid).State())
	}
	if g.CheckProgram(capsule(fid, epoch), 1) {
		t.Error("quarantined capsule admitted")
	}
	if g.Tenant(fid).Count(KindQuarTraffic) != 1 {
		t.Errorf("quarantine-traffic count = %d, want 1", g.Tenant(fid).Count(KindQuarTraffic))
	}
}

func TestPortAttributionForUnauthenticatedViolations(t *testing.T) {
	g, rt, _, _ := newTestGuard(t)
	const victim = 9
	const port = 3
	installGrant(t, rt, victim, 0, 64)

	// Malformed: branch to an undefined label.
	bad := capsule(victim, rt.Epoch(victim), isa.Instruction{Op: isa.OpUJump, Operand: 5}, isa.Instruction{Op: isa.OpReturn})
	if g.CheckProgram(bad, port) {
		t.Error("malformed capsule admitted")
	}
	// Forged: victim's FID with wrong epochs, the framing attack.
	for e := uint8(0); e < 20; e++ {
		if e == rt.Epoch(victim) {
			continue
		}
		if g.CheckProgram(capsule(victim, e), port) {
			t.Errorf("forged epoch %d admitted", e)
		}
	}

	pl := g.Port(port)
	if pl == nil {
		t.Fatal("no port ledger")
	}
	if pl.Count(KindMalformed) != 1 {
		t.Errorf("port malformed = %d, want 1", pl.Count(KindMalformed))
	}
	if pl.Count(KindBadEpoch) != 19 {
		t.Errorf("port bad-epoch = %d, want 19", pl.Count(KindBadEpoch))
	}
	// The decisive assertion: the victim was never charged.
	if led := g.Tenant(victim); led != nil && (led.State() != Healthy || led.Total() != 0) {
		t.Errorf("victim ledger charged by forgery: state %v, total %d", led.State(), led.Total())
	}
	// And the real grant holder still gets through.
	if !g.CheckProgram(capsule(victim, rt.Epoch(victim)), port) {
		t.Error("legitimate capsule refused")
	}
}

func TestOverBudgetProgramIsTenantAttributed(t *testing.T) {
	g, rt, _, _ := newTestGuard(t)
	const fid = 10
	installGrant(t, rt, fid, 0, 64)

	limit := g.maxProgramLen()
	instrs := make([]isa.Instruction, limit+1)
	for i := range instrs {
		instrs[i] = isa.Instruction{Op: isa.OpNop}
	}
	if g.CheckProgram(capsule(fid, rt.Epoch(fid), instrs...), 1) {
		t.Error("over-budget program admitted")
	}
	if got := g.Tenant(fid).Count(KindOverBudget); got != 1 {
		t.Errorf("over-budget count = %d, want 1", got)
	}
	// Exactly at the limit is fine.
	if !g.CheckProgram(capsule(fid, rt.Epoch(fid), instrs[:limit]...), 1) {
		t.Error("at-budget program refused")
	}
}

func TestRevokedAndNeverAdmitted(t *testing.T) {
	g, rt, _, _ := newTestGuard(t)
	const fid = 11
	installGrant(t, rt, fid, 0, 64)
	epoch := rt.Epoch(fid)
	rt.RemoveGrant(fid)

	if g.CheckProgram(capsule(fid, epoch), 2) {
		t.Error("revoked FID admitted")
	}
	if g.Port(2).Count(KindRevoked) != 1 {
		t.Errorf("port revoked = %d, want 1", g.Port(2).Count(KindRevoked))
	}
	// Never-admitted FIDs pass the guard: the pipeline treats them as a
	// table miss and forwards unexecuted.
	if !g.CheckProgram(capsule(999, 0), 2) {
		t.Error("never-admitted FID refused at ingress")
	}
}

func TestReinstateResetsLadder(t *testing.T) {
	g, rt, _, esc := newTestGuard(t)
	const fid = 12
	installGrant(t, rt, fid, 0, 64)

	for i := 0; i < quarantineAt; i++ {
		g.MemFault(fid)
	}
	if g.Tenant(fid).State() != Quarantined {
		t.Fatalf("state = %v, want Quarantined", g.Tenant(fid).State())
	}
	g.Reinstate(fid)
	led := g.Tenant(fid)
	if led.State() != Healthy || led.Score() != 0 {
		t.Errorf("after reinstate: state %v score %d, want Healthy 0", led.State(), led.Score())
	}
	if last := led.History[len(led.History)-1]; last.Trigger != KindReadmitted {
		t.Errorf("reinstate trigger = %v, want readmitted", last.Trigger)
	}
	// The all-time record survives.
	if led.Count(KindMemFault) != quarantineAt {
		t.Errorf("mem-fault count = %d, want %d", led.Count(KindMemFault), quarantineAt)
	}
	_ = esc
}

func TestAuditorFindsOverlapOrphanAndEscape(t *testing.T) {
	_, rt, _, _ := newTestGuard(t)
	installGrant(t, rt, 20, 0, 64)
	installGrant(t, rt, 21, 64, 128)

	if fs := AuditRuntime(rt); len(fs) != 0 {
		t.Fatalf("clean system has findings: %v", fs)
	}

	dev := rt.Device()
	// Overlap: force fid 21's stage-1 region onto fid 20's words behind the
	// allocator's back (the TCAM itself doesn't cross-check tenants).
	if err := dev.Stage(1).Prot.Install(rmt.Region{FID: 21, Lo: 32, Hi: 96}); err != nil {
		t.Fatal(err)
	}
	// Orphan: a region for a FID that was never admitted.
	if err := dev.Stage(2).Prot.Install(rmt.Region{FID: 99, Lo: 0, Hi: 16}); err != nil {
		t.Fatal(err)
	}
	// Escape: fid 20's translation window reaches past its region.
	dev.Stage(3).SetTranslate(20, rmt.Translate{Mask: 127, Offset: 0})

	fs := AuditRuntime(rt)
	found := map[FindingKind]int{}
	for _, f := range fs {
		found[f.Kind]++
	}
	if found[FindingOverlap] == 0 {
		t.Error("overlap not found")
	}
	if found[FindingOrphanRegion] == 0 {
		t.Error("orphan region not found")
	}
	if found[FindingTranslateEscape] == 0 {
		t.Error("translate escape not found")
	}
}

func TestNonProgramCapsulesBypassTheGuard(t *testing.T) {
	g, _, _, _ := newTestGuard(t)
	a := &packet.Active{Header: packet.ActiveHeader{FID: 50}}
	a.Header.SetType(packet.TypeControl)
	if !g.CheckProgram(a, 1) {
		t.Error("control capsule blocked")
	}
	if !g.CheckProgram(nil, 1) {
		t.Error("nil capsule blocked")
	}
	if g.Checked() != 0 {
		t.Errorf("Checked = %d, want 0", g.Checked())
	}
}
