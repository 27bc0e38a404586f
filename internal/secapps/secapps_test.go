package secapps

import (
	"testing"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/guard"
	"activermt/internal/runtime"
	"activermt/internal/testbed"
)

func TestServiceSkeletonsConsistent(t *testing.T) {
	// Multi-template services must share one access skeleton: one mutant
	// serves all of a service's programs.
	for _, svc := range []interface {
		Constraints() (*alloc.Constraints, error)
	}{
		SynFloodService(NewSynDetector(8)),
		RateLimitService(NewRateLimiter(10)),
		HXSketchService(),
		HXClaimService(),
	} {
		if _, err := svc.Constraints(); err != nil {
			t.Errorf("skeleton inconsistency: %v", err)
		}
	}
}

func TestProgramShapes(t *testing.T) {
	// The claim arm must cost exactly one extra pass at its compact
	// placement — that is the per-claim recirculation price the driver
	// budgets against.
	if n := hxClaimProg.Len(); n != 25 {
		t.Errorf("hx-claim length = %d, want 25 (one extra pass on 20 stages)", n)
	}
	if got := hxClaimProg.MemoryAccessIndices(); len(got) != 1 || got[0] != 23 {
		t.Errorf("hx-claim accesses = %v, want [23]", got)
	}
	// The SYN and ACK arms must hash at the same index (same stage seed =
	// same counter slot) and keep the skeleton [6, 15].
	for _, p := range []struct {
		name string
		got  []int
	}{
		{"sf-syn", sfSynProg.MemoryAccessIndices()},
		{"sf-ack", sfAckProg.MemoryAccessIndices()},
	} {
		if len(p.got) != 2 || p.got[0] != 6 || p.got[1] != 15 {
			t.Errorf("%s accesses = %v, want [6 15]", p.name, p.got)
		}
	}
	if n := len(Programs()); n != 6 {
		t.Errorf("registry size = %d, want 6", n)
	}
}

func newBed(t *testing.T) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func operational(t *testing.T, tb *testbed.Testbed, cls ...interface {
	RequestAllocation() error
}) {
	t.Helper()
	for _, cl := range cls {
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSynFloodDetectionEndToEnd(t *testing.T) {
	tb := newBed(t)
	sink := NewRLSink(testbed.MACFor(200))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)

	d := NewSynDetector(16)
	cl := tb.AddClient(31, SynFloodService(d))
	d.Bind(cl)
	d.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Disjoint counter slots keep the oracle exact (a shared slot is the
	// sketch's documented false-negative mode, not a detector bug).
	slot := func(src uint32) uint32 { s, _ := d.CounterSlot(src); return s }
	gen := NewSynFloodGen(11, 40, 6, slot)
	for round := 0; round < 4; round++ {
		gen.Round(d, sink.MAC())
		tb.RunFor(20 * time.Millisecond)
		if _, err := d.ScanAlarms(); err != nil {
			t.Fatal(err)
		}
	}

	precision, recall := d.Score(gen.Truth)
	if precision < 0.95 || recall < 0.95 {
		t.Fatalf("precision=%.2f recall=%.2f, want >= 0.95 (alarmed %d of %d attackers)",
			precision, recall, len(d.Alarmed), len(gen.Attackers))
	}
	// Attackers send 8 SYNs/round over 4 rounds = 32 > 16 threshold; benign
	// backlog never exceeds ~8 < 16, so with disjoint slots the oracle is
	// exact.
	if precision != 1.0 {
		t.Errorf("false positives with disjoint slots: precision=%.2f", precision)
	}
}

func TestRateLimitEnforcementEndToEnd(t *testing.T) {
	tb := newBed(t)
	sink := NewRLSink(testbed.MACFor(201))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)

	rl := NewRateLimiter(20)
	cl := tb.AddClient(32, RateLimitService(rl))
	rl.Bind(cl)
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Three tenants: one well under, one at the limit, one flooding.
	offered := map[uint32]int{0xA1: 5, 0xB2: 20, 0xC3: 60}
	for w := 0; w < 2; w++ {
		for tenant := range offered {
			rl.Refill(tenant, sink.MAC())
		}
		tb.RunFor(5 * time.Millisecond)
		for tenant, n := range offered {
			for i := 0; i < n; i++ {
				rl.Send(tenant, nil, sink.MAC())
			}
		}
		tb.RunFor(20 * time.Millisecond)
	}

	// Two windows: under-limit tenants deliver everything, the flooder is
	// clamped to the window budget (the simulated fabric is lossless here,
	// so enforcement is exact, not just an upper bound).
	for tenant, n := range offered {
		want := uint64(2 * n)
		if n > 20 {
			want = 2 * 20
		}
		if got := sink.Delivered[tenant]; got != want {
			t.Errorf("tenant %#x: delivered %d, want %d (offered %d)", tenant, got, 2*n, want)
		}
	}
	if rl.Refills != 6 {
		t.Errorf("refills = %d, want 6", rl.Refills)
	}
}

func TestRecircHHBudgetEndToEnd(t *testing.T) {
	// The claim arm is a two-pass program; only the least-constrained
	// allocation policy admits multi-pass placements (most-constrained
	// bounds pin every access to the first pass), so the heavy-hitter
	// deployment runs the switch allocator under LC.
	cfg := testbed.DefaultConfig()
	cfg.Alloc.Policy = alloc.LeastConstrained
	tb, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewRLSink(testbed.MACFor(202))
	_, sp := tb.Attach(sink, sink.MAC())
	sink.Attach(sp)

	const claimFID = 34
	hh := NewRecircHH(5, 32, 4)
	sketchCl := tb.AddClient(33, HXSketchService())
	claimCl := tb.AddClient(claimFID, HXClaimService())
	hh.Bind(sketchCl, claimCl)
	hh.SnapshotFn = tb.SnapshotFn()
	if err := sketchCl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(sketchCl, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := claimCl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitOperational(claimCl, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// A small recirculation budget the driver must respect: 8 extra passes
	// per 50ms window.
	tb.RT.EnableRecircLimiter(runtime.RecircPolicy{Budget: 8, Window: 50 * time.Millisecond}, tb.Eng.Now)
	hh.BudgetFn = func() int { return tb.RT.RecircBudgetRemaining(claimFID) }

	if extra := hh.ClaimExtraPasses(); extra != 1 {
		t.Fatalf("claim extra passes = %d, want 1", extra)
	}

	gen := NewHXGen(9, 512, 1.4)
	for i := 0; i < 8000; i++ {
		hh.Observe(gen.Next(), nil, sink.MAC())
		tb.RunFor(25 * time.Microsecond)
		if i%250 == 249 {
			if _, err := hh.Harvest(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tb.RunFor(10 * time.Millisecond)

	if hh.Claims == 0 {
		t.Fatal("no claims issued — the two-pass arm never ran")
	}
	if hh.ClaimsDeferred == 0 {
		t.Error("no claims deferred — the budget was never binding, test is vacuous")
	}

	// The whole point: a cooperative consumer at the default budget never
	// trips the limiter — no runtime throttles, no guard ledger entries.
	if tb.RT.RecircThrottled != 0 {
		t.Errorf("runtime throttled %d capsules", tb.RT.RecircThrottled)
	}
	if led := tb.Guard.Tenant(claimFID); led != nil && led.Count(guard.KindRecircThrottled) != 0 {
		t.Errorf("recirc-throttled ledger entries = %d, want 0", led.Count(guard.KindRecircThrottled))
	}
	// Spend accounting is exact: every claim recirculated once.
	if got := tb.RT.Device().Recirculations; got != hh.Claims {
		t.Errorf("device recirculations = %d, claims = %d", got, hh.Claims)
	}
	if hh.RecircSpent != hh.Claims {
		t.Errorf("recirc spend = %d, claims = %d", hh.RecircSpent, hh.Claims)
	}

	// Accuracy: the sketch+harvest path finds every top ground-truth key,
	// and the scarce claim budget concentrates on the hottest of them — the
	// true top key must come out on top of the exact counters. (Under a
	// deliberately binding budget the colder top keys may win zero claim
	// slots, so only the claimed set — not the exact ranking — is asserted
	// for them.)
	hot, err := hh.HotKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot keys")
	}
	claimed := map[uint32]bool{}
	for _, k := range hh.ClaimedKeys() {
		claimed[k] = true
	}
	for _, k := range gen.TopTruth(3) {
		if !claimed[k] {
			t.Errorf("ground-truth top key %#x never promoted to the claimed set", k)
		}
	}
	if top := gen.TopTruth(1)[0]; hot[0].Key != top {
		t.Errorf("hottest exact-counted key = %#x, want ground-truth top %#x", hot[0].Key, top)
	}
}
