package fabric_test

import (
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/fabric"
	"activermt/internal/netsim"
)

// writeRig is a 2×2 fabric with the KV server on leaf 1, the health monitor
// running and one key warmed on both leaves, so a write from leaf 0
// invalidates leaf 1 and commits across the home spine. It reads the key
// from both leaves every pollEvery and records every answered read issued
// after the write under test was acked that returned another value.
type writeRig struct {
	t     *testing.T
	f     *fabric.Fabric
	cc    *fabric.CoherentCache
	home  int
	write uint32 // seq of the write under test
	want  uint32 // its value
	acked bool
	after map[uint32]bool // GET seqs issued after the ack
	stale []uint32        // values those GETs returned other than want
	last  map[int]uint32  // the last answer on each leaf after the ack
	stop  bool
	down  bool // the home spine's controller is crashed
}

const (
	rigK0, rigK1 = 0x71, 0x72
	rigOld       = 100
	pollEvery    = 500 * time.Microsecond
	outage       = 40 * time.Millisecond
)

func newWriteRig(t *testing.T) *writeRig {
	t.Helper()
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)
	srv.Store[apps.KeyOf(rigK0, rigK1)] = rigOld
	cc, err := fabric.NewCoherentCache(fc, 21, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	h := fabric.NewHealth(f)
	cc.WatchHealth(h)
	h.Start()
	t.Cleanup(h.Stop)
	r := &writeRig{t: t, f: f, cc: cc, home: cc.Home().Index, after: map[uint32]bool{}, last: map[int]uint32{}}
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) {
		if r.after[seq] {
			r.last[leaf] = value
			if value != r.want {
				r.stale = append(r.stale, value)
			}
		}
	}
	cc.OnWriteAck = func(leaf int, seq, value uint32) { r.acked = r.acked || seq == r.write }
	for _, leaf := range []int{0, 1} {
		if err := cc.Warm(leaf, []apps.KVMsg{{Key0: rigK0, Key1: rigK1, Value: rigOld}}); err != nil {
			t.Fatal(err)
		}
	}
	f.RunFor(50 * time.Millisecond)
	var poll func()
	poll = func() {
		if !r.stop {
			r.read(0)
			r.read(1)
			f.Eng.Schedule(pollEvery, poll)
		}
	}
	poll()
	return r
}

func (r *writeRig) read(leaf int) {
	seq, err := r.cc.Get(leaf, rigK0, rigK1)
	if err != nil {
		r.t.Fatal(err)
	}
	if r.acked {
		r.after[seq] = true
	}
}

// put issues the write under test.
func (r *writeRig) put(leaf int, value uint32) {
	seq, err := r.cc.Put(leaf, rigK0, rigK1, value)
	if err != nil {
		r.t.Fatal(err)
	}
	r.write, r.want = seq, value
}

// putAt issues the write under test and stops the simulation at the first
// event after which it waits in phase ph. A queued write waits behind a
// write from leaf 1 issued just before it.
func (r *writeRig) putAt(ph fabric.Phase) {
	r.t.Helper()
	if ph == fabric.PhaseQueued {
		if _, err := r.cc.Put(1, rigK0, rigK1, rigOld+1); err != nil {
			r.t.Fatal(err)
		}
	}
	r.put(0, rigOld+2)
	runUntil(r.t, r.f, time.Second, "write to reach "+ph.String(), func() bool {
		return r.cc.WritePhase(r.write) >= ph
	})
	if got := r.cc.WritePhase(r.write); got != ph {
		r.t.Fatalf("write went to %v without waiting in %v", got, ph)
	}
}

// partition cuts leaf 0's link to the home spine.
func (r *writeRig) partition() (heal func()) {
	link, err := r.f.UplinkPort(0, r.home)
	if err != nil {
		r.t.Fatal(err)
	}
	p := chaos.Partition{Ports: []*netsim.Port{link, link.Peer()}}
	p.Apply(nil)
	return func() { p.Revert(nil) }
}

// crash kills the home spine's controller, unless it is down already.
func (r *writeRig) crash() (heal func()) {
	ctrl := r.cc.Home().Ctrl
	if !r.down {
		ctrl.Crash()
		r.down = true
	}
	return ctrl.Restart
}

// reach drives the cache into home state st: it cuts leaf 0's home link
// and, unless st is degraded, heals it again. For scrubbing it also crashes
// the home controller first, so the scrub fails and retries. It returns the
// heal of what is still broken.
func (r *writeRig) reach(st string) (heal func()) {
	r.t.Helper()
	healLink, restart := r.partition(), func() {}
	if st == "scrubbing" {
		restart = r.crash()
	}
	runUntil(r.t, r.f, time.Second, "degraded entry", r.cc.Degraded)
	if st != "degraded" {
		healLink()
	}
	runUntil(r.t, r.f, time.Second, "home state "+st, func() bool { return r.cc.HomeState() == st })
	return func() { healLink(); restart() }
}

// settle heals the fault outage later, reading from both leaves right after
// the heal, and checks row R1: the write is acked, no read issued after the
// ack returned another value, and once healed the home is undrained, the
// cache is out of degraded mode and both leaves read the written value.
func (r *writeRig) settle(heal func()) {
	r.t.Helper()
	healed := false
	r.f.Eng.Schedule(outage, func() {
		heal()
		healed = true
		r.read(0)
		r.read(1)
	})
	runUntil(r.t, r.f, 2*time.Second, "write acked and home undrained", func() bool {
		return healed && r.acked && !r.cc.Degraded() && !r.f.Drained(r.home)
	})
	r.f.RunFor(20 * time.Millisecond)
	r.stop = true
	r.f.RunFor(10 * time.Millisecond)
	if len(r.stale) > 0 {
		r.t.Errorf("reads issued after the ack of %d returned %v", r.want, r.stale)
	}
	for _, leaf := range []int{0, 1} {
		if v, ok := r.last[leaf]; !ok || v != r.want {
			r.t.Errorf("leaf %d last read after the heal = %d (answered %v), want %d", leaf, v, ok, r.want)
		}
	}
}

// TestWriteSurvivesHomeFaultAtEveryPhase cuts the writer's link to the home
// spine, or crashes the home spine's controller, at every phase a write
// waits in, and issues a write and takes either fault in every home state
// but healthy; each must keep row R1 (docs/invariants.md). One more case
// writes from the server's leaf, whose commit never crosses leaf 0, while
// leaf 0's host link is down: the write must wait for the hairpin that
// evicts leaf 0's copy, or the first read leaf 0 issues after the heal hits
// the old value.
func TestWriteSurvivesHomeFaultAtEveryPhase(t *testing.T) {
	faults := []struct {
		name   string
		inject func(*writeRig) func()
	}{
		{"uplink", (*writeRig).partition},
		{"home-controller", (*writeRig).crash},
	}
	for _, ph := range []fabric.Phase{fabric.PhaseQueued, fabric.PhaseInvalidating, fabric.PhaseCommitting} {
		for _, fl := range faults {
			t.Run(ph.String()+"/"+fl.name, func(t *testing.T) {
				r := newWriteRig(t)
				r.putAt(ph)
				r.settle(fl.inject(r))
			})
		}
	}
	t.Run("stale-reader-host-link", func(t *testing.T) {
		r := newWriteRig(t)
		m := r.cc.Set().Members[0]
		if m.Leaf != 0 || !m.Node.Leaf {
			t.Fatal("replica member 0 is not leaf 0's frontend")
		}
		p := chaos.Partition{Ports: []*netsim.Port{m.Client.Port(), m.Client.Port().Peer()}}
		p.Apply(nil)
		r.put(1, rigOld+2) // its commit never crosses leaf 0
		r.settle(func() { p.Revert(nil) })
	})
	for _, st := range []string{"degraded", "scrubbing", "confirming", "undraining"} {
		t.Run(st, func(t *testing.T) {
			for _, fl := range faults {
				t.Run(fl.name, func(t *testing.T) {
					r := newWriteRig(t)
					healSetup := r.reach(st)
					r.put(0, rigOld+2)
					heal := fl.inject(r)
					r.settle(func() { heal(); healSetup() })
				})
			}
		})
	}
}

// TestPutAllocatesNothing pins a steady-state write at zero allocations: on a
// warmed 2-leaf cache each iteration writes one key from leaf 0 and then
// from leaf 1, each to its ack, so every write invalidates the other leaf's
// copy, reuses an acked write record and arms its retries as typed timers.
func TestPutAllocatesNothing(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)
	srv.Store[apps.KeyOf(rigK0, rigK1)] = rigOld
	cc, err := fabric.NewCoherentCache(fc, 21, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	var last, want uint32
	cc.OnWriteAck = func(leaf int, seq, value uint32) { last = seq }
	done := func() bool { return last == want }
	put := func(leaf int) {
		if want, err = cc.Put(leaf, rigK0, rigK1, rigOld+uint32(leaf)); err != nil {
			t.Fatal(err)
		}
		f.Eng.StepUntil(f.Eng.Now()+time.Second, done)
		if last != want {
			t.Fatalf("write %d from leaf %d not acked", want, leaf)
		}
	}
	round := func() { put(0); put(1) }
	if err := cc.Warm(0, []apps.KVMsg{{Key0: rigK0, Key1: rigK1, Value: rigOld}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)
	for range 20 { // grow the event queue and the maps to their working sizes
		round()
	}
	sent := cc.InvalSent
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("two acked writes allocated %v times, want 0", n)
	}
	if cc.InvalSent < sent+200 {
		t.Errorf("InvalSent grew by %d over 101 rounds, want one per write", cc.InvalSent-sent)
	}
}

// TestStaleRetrySparesRecycledRecord pins row R1c: write A is acked before
// its commit retry fires, and write B, reusing A's record, is still
// committing when that retry fires (the server's leaf is cut off, so B's
// commit is never acked). A's retry must not resend B's commit: the first
// commit retransmit is B's own, one commit retry interval (2 ms) after B.
func TestStaleRetrySparesRecycledRecord(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)
	cc, err := fabric.NewCoherentCache(fc, 21, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	const commitRetry = 2 * time.Millisecond
	acked := false
	cc.OnWriteAck = func(leaf int, seq, value uint32) { acked = true }
	tA := f.Eng.Now()
	if _, err := cc.Put(0, rigK0, rigK1, 1); err != nil { // no copy to invalidate: A commits at once
		t.Fatal(err)
	}
	runUntil(t, f, commitRetry, "write A acked", func() bool { return acked })
	link, err := f.UplinkPort(1, cc.Home().Index)
	if err != nil {
		t.Fatal(err)
	}
	(&chaos.Partition{Ports: []*netsim.Port{link, link.Peer()}}).Apply(nil)
	tB := f.Eng.Now()
	if tB >= tA+commitRetry || cc.CommitRetransmits != 0 {
		t.Fatalf("write A took %v and %d commit retransmits, want under %v and none", tB-tA, cc.CommitRetransmits, commitRetry)
	}
	seqB, err := cc.Put(0, rigK0, rigK1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.Eng.RunUntil(tB + commitRetry - time.Nanosecond) // A's retry fires in here
	if got := cc.WritePhase(seqB); got != fabric.PhaseCommitting {
		t.Fatalf("write B is %v, want committing", got)
	}
	if cc.CommitRetransmits != 0 {
		t.Errorf("%d commit retransmits before write B's own retry: write A's retry acted on B", cc.CommitRetransmits)
	}
	f.Eng.RunUntil(tB + commitRetry)
	if cc.CommitRetransmits != 1 {
		t.Errorf("%d commit retransmits at write B's retry, want 1", cc.CommitRetransmits)
	}
}
