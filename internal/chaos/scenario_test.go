package chaos_test

// Full-stack chaos tests: scenarios from the library run against the
// assembled testbed (switch, controller, shim clients, apps). These are the
// acceptance tests for the robustness work: a controller crash-restart in
// the middle of a reallocation leaves every previously admitted app
// operational, and corrupted register memory ends with the damaged blocks
// quarantined and the owning app re-placed.

import (
	"testing"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/netsim"
	"activermt/internal/testbed"
)

func newBed(t *testing.T) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// faultTolerant arms a client's escapes from a faulty network or controller:
// retries with backoff, and a bounded reallocation window.
func faultTolerant(cls ...*client.Client) {
	for _, cl := range cls {
		cl.RetryAfter = 50 * time.Millisecond
		cl.ReallocTimeout = 250 * time.Millisecond
	}
}

// waitAll steps the simulation until every client is operational (or the
// deadline passes, which fails the test).
func waitAll(t *testing.T, tb *testbed.Testbed, deadline time.Duration, cls ...*client.Client) {
	t.Helper()
	limit := tb.Eng.Now() + deadline
	for tb.Eng.Now() < limit {
		ok := true
		for _, cl := range cls {
			if cl.State() != client.Operational {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		tb.RunFor(10 * time.Millisecond)
	}
	for _, cl := range cls {
		if cl.State() != client.Operational {
			t.Errorf("fid %d stuck in %v", cl.FID(), cl.State())
		}
	}
	t.FailNow()
}

func TestControllerCrashRestartDuringReallocation(t *testing.T) {
	tb := newBed(t)
	srv := tb.AddKVServer()

	// Three caches fill the cache-reachable stages; the fourth arrival
	// forces a reallocation (same pressure as the Figure 9b experiment).
	clients := make([]*client.Client, 0, 4)
	for fid := uint16(1); fid <= 3; fid++ {
		_, cl := tb.AddCache(fid, srv)
		faultTolerant(cl)
		clients = append(clients, cl)
		if err := cl.RequestAllocation(); err != nil {
			t.Fatal(err)
		}
		waitAll(t, tb, 10*time.Second, cl)
	}
	_, cl4 := tb.AddCache(4, srv)
	faultTolerant(cl4)
	clients = append(clients, cl4)
	if err := cl4.RequestAllocation(); err != nil {
		t.Fatal(err)
	}

	// Crash the controller 15ms into the fourth admission and restart it
	// 300ms later. The crash always lands in the table time, which begins at
	// about 6ms, once the compute time and the snapshot window are over;
	// TestCrashAtEveryPhase (internal/switchd) crashes in every phase.
	sc := chaos.Outage("controller-outage", chaos.ControllerCrash{}, 15*time.Millisecond, 300*time.Millisecond, 42)
	if err := sc.Install(tb.System()); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(10 * time.Second)

	if tb.Ctrl.Crashes != 1 || tb.Ctrl.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d", tb.Ctrl.Crashes, tb.Ctrl.Restarts)
	}
	// Acceptance: every app operational, nobody stuck, books rebuilt.
	for _, cl := range clients {
		if cl.State() != client.Operational {
			t.Errorf("fid %d stuck in %v after restart", cl.FID(), cl.State())
		}
	}
	if n := tb.Ctrl.Allocator().NumApps(); n != 4 {
		t.Errorf("allocator rebuilt with %d apps, want 4", n)
	}
	// Client placements and switch tables agree for every app.
	for _, cl := range clients {
		pl := cl.Placement()
		if pl == nil {
			t.Fatalf("fid %d has no placement", cl.FID())
		}
		for _, ap := range pl.Accesses {
			reg, ok := tb.RT.RegionFor(cl.FID(), ap.Logical%20)
			if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
				t.Errorf("fid %d: table/placement divergence at stage %d", cl.FID(), ap.Logical%20)
			}
		}
	}
	if len(sc.Trace()) != 2 {
		t.Errorf("trace = %v", sc.Trace())
	}
}

func TestCorruptedMemoryQuarantineAndRealloc(t *testing.T) {
	tb := newBed(t)
	ms, cl := tb.AddMemSync(1, 0) // elastic single-region app
	faultTolerant(cl)
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	waitAll(t, tb, 5*time.Second, cl)
	stage := cl.Placement().Accesses[0].Logical % 20

	// Cache traffic against the region, so corruption lands on live state.
	wrote := 0
	for i := uint32(0); i < 16; i++ {
		ms.Write(i, 0xBEEF+i, func(uint32) { wrote++ })
	}
	tb.RunFor(100 * time.Millisecond)
	if wrote != 16 {
		t.Fatalf("writes acked: %d/16", wrote)
	}

	// Flip bits inside installed regions of the app's stage, then run the
	// controller sweep.
	sc := chaos.CorruptedMemory(stage, 24, 10*time.Millisecond, 50*time.Millisecond, 7)
	if err := sc.Install(tb.System()); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(5 * time.Second)

	al := tb.Ctrl.Allocator()
	if al.QuarantinedBlocks() == 0 {
		t.Fatal("no blocks quarantined after sweep")
	}
	if cl.State() != client.Operational {
		t.Fatalf("app stuck in %v after repair", cl.State())
	}
	if cl.Reallocations == 0 {
		t.Error("owner was not re-placed")
	}
	// The new placement avoids every quarantined block.
	bw := al.Config().BlockWords
	for _, ap := range cl.Placement().Accesses {
		s := ap.Logical % 20
		for b := int(ap.Range.Lo) / bw; b < (int(ap.Range.Hi)+bw-1)/bw; b++ {
			if al.QuarantinedIn(s, b) {
				t.Errorf("stage %d block %d: placement overlaps quarantine", s, b)
			}
		}
	}
	if got, want := tb.Ctrl.QuarantinedBlockCount, al.QuarantinedBlocks(); got != uint64(want) {
		t.Errorf("fenced-blocks counter %d, the allocator fences %d", got, want)
	}
	// The sweep scrubbed everything it found: a fresh scan is clean.
	if left := tb.RT.SweepCorruption(); len(left) != 0 {
		t.Errorf("%d corrupted words left after repair", len(left))
	}
	// The app still works end to end after re-placement.
	done := 0
	for i := uint32(0); i < 8; i++ {
		ms.Write(i, 0xD00D+i, func(uint32) { done++ })
	}
	tb.RunFor(100 * time.Millisecond)
	if done != 8 {
		t.Errorf("post-repair writes acked: %d/8", done)
	}
}

func TestFlappingPortClientRidesThrough(t *testing.T) {
	tb := newBed(t)
	_, cl := tb.AddCache(1, tb.AddKVServer())
	faultTolerant(cl)
	cl.RetryAfter = 30 * time.Millisecond

	sc := chaos.Flap("flapping-port", chaos.Partition{Ports: []*netsim.Port{cl.Port()}}, 0, 100*time.Millisecond, 3, 9)
	if err := sc.Install(tb.System()); err != nil {
		t.Fatal(err)
	}
	if err := cl.RequestAllocation(); err != nil {
		t.Fatal(err)
	}
	waitAll(t, tb, 10*time.Second, cl)
	// Let the remaining flaps play out; an idle operational client rides
	// through them.
	tb.RunFor(time.Second)
	if cl.State() != client.Operational {
		t.Errorf("state = %v after flaps settled", cl.State())
	}
	if cl.Port().DroppedDown == 0 && cl.Port().Peer().DroppedDown == 0 {
		t.Error("flapping port dropped nothing")
	}
	if len(sc.Trace()) != 6 {
		t.Errorf("trace = %v", sc.Trace())
	}
}

// TestFlakyLinkScenarioDeterministic replays the same scenario (same seed,
// same topology) twice and requires bit-identical event traces and client
// counters — the reproducibility contract of the chaos layer.
func TestFlakyLinkScenarioDeterministic(t *testing.T) {
	run := func() (string, [6]uint64, int) {
		tb := newBed(t)
		srv := tb.AddKVServer()
		_, cl1 := tb.AddCache(1, srv)
		_, cl2 := tb.AddCache(2, srv)
		faultTolerant(cl1, cl2)
		sc := chaos.FlakyLink([]*netsim.Port{cl1.Port(), cl2.Port()}, 99)
		if err := sc.Install(tb.System()); err != nil {
			t.Fatal(err)
		}
		_ = cl1.RequestAllocation()
		_ = cl2.RequestAllocation()
		tb.RunFor(4 * time.Second)
		return chaos.TraceString(sc.Trace()),
			[6]uint64{cl1.Sent, cl1.Received, cl1.Retries, cl2.Sent, cl2.Received, cl2.Retries},
			len(tb.Ctrl.Records)
	}
	t1, c1, r1 := run()
	t2, c2, r2 := run()
	if t1 != t2 {
		t.Errorf("traces differ:\n%s\n--- vs ---\n%s", t1, t2)
	}
	if c1 != c2 {
		t.Errorf("counters differ: %v vs %v", c1, c2)
	}
	if r1 != r2 {
		t.Errorf("record counts differ: %d vs %d", r1, r2)
	}
	if t1 == "" {
		t.Error("empty trace")
	}
}
