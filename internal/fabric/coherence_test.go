package fabric_test

import (
	"fmt"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/fabric"
	"activermt/internal/packet"
)

// TestCoherenceNoStaleHit drives the write-invalidate protocol end to end
// on a 4-switch fabric: after a write from one leaf, a read from a leaf
// that previously held the object must never return the old value — the
// invalidation evicts its copy, and the miss re-reads through the
// already-updated home spine or server.
func TestCoherenceNoStaleHit(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0xAB, 0xCD
	const v1, v2 = 111, 222
	srv.Store[apps.KeyOf(k0, k1)] = v1

	cc, err := fabric.NewCoherentCache(fc, 9, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	type resp struct {
		value uint32
		hit   bool
	}
	got := make(map[uint32]resp)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { got[seq] = resp{value, hit} }

	// Warm from leaf 0: the populate-fwd capsule installs v1 at leaf0, the
	// home spine, and leaf1 (the server's leaf hosts a replica) en route.
	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	get := func(leaf int) resp {
		t.Helper()
		seq, err := cc.Get(leaf, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, time.Second, "GET answered", func() bool {
			_, ok := got[seq]
			return ok
		})
		return got[seq]
	}

	// Both leaves see v1; leaf 1's read registers it in the directory.
	if r := get(0); !r.hit || r.value != v1 {
		t.Fatalf("pre-write read on leaf0 = (%d, hit=%v), want (%d, hit)", r.value, r.hit, v1)
	}
	if r := get(1); !r.hit || r.value != v1 {
		t.Fatalf("pre-write read on leaf1 = (%d, hit=%v), want (%d, hit)", r.value, r.hit, v1)
	}

	// Write v2 from leaf 0: invalidations first, then the update capsule.
	if _, err := cc.Put(0, k0, k1, v2); err != nil {
		t.Fatal(err)
	}
	if cc.InvalSent == 0 {
		t.Fatal("write to a shared key sent no invalidations")
	}
	runUntil(t, f, time.Second, "write ack and invalidation delivery", func() bool {
		return cc.WriteAcks >= 1 && cc.InvalDelivered >= 1
	})
	if srv.Store[apps.KeyOf(k0, k1)] != v2 {
		t.Fatalf("server store = %d, want %d", srv.Store[apps.KeyOf(k0, k1)], v2)
	}

	// The no-stale-hit assertion: leaf 1 must never see v1 again. Its own
	// copy was evicted, so the read either hits the updated home spine or
	// misses through to the server — both return v2.
	if r := get(1); r.value != v2 {
		t.Fatalf("post-invalidate read on leaf1 returned stale %d, want %d (hit=%v)", r.value, v2, r.hit)
	}
	// The writer's leaf holds the new value directly.
	if r := get(0); !r.hit || r.value != v2 {
		t.Fatalf("post-write read on leaf0 = (%d, hit=%v), want (%d, hit)", r.value, r.hit, v2)
	}
	// And leaf 1 converges back to hitting after its re-fill.
	if r := get(1); r.value != v2 {
		t.Fatalf("re-read on leaf1 = %d, want %d", r.value, v2)
	}
}

// TestCoherenceWriteFromRemoteLeaf writes from the leaf that did NOT warm
// the cache, exercising invalidation toward the warmer's leaf.
func TestCoherenceWriteFromRemoteLeaf(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0x11, 0x22
	const v1, v2 = 7, 8
	srv.Store[apps.KeyOf(k0, k1)] = v1

	cc, err := fabric.NewCoherentCache(fc, 11, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	var last struct {
		seq   uint32
		value uint32
	}
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { last.seq, last.value = seq, value }

	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	// Write from leaf 1: leaf 0's warmed copy must be invalidated.
	if _, err := cc.Put(1, k0, k1, v2); err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "write ack and invalidation delivery", func() bool {
		return cc.WriteAcks >= 1 && cc.InvalDelivered >= 1
	})

	seq, err := cc.Get(0, k0, k1)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "read after remote write", func() bool { return last.seq == seq })
	if last.value != v2 {
		t.Fatalf("leaf0 read %d after remote write, want %d", last.value, v2)
	}
}

// TestHomeEvictionSparesNeighbourBucket: a writer on the server's own leaf
// commits without crossing the home spine, so the ack evicts the key's home
// bucket through the control plane (settleHome). The bucket two above shares
// word addresses with it in the later access stages; its next home hit must
// still return its value, not the zero an over-wide scrub leaves behind.
func TestHomeEvictionSparesNeighbourBucket(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)
	const fid = 9
	cc, err := fabric.NewCoherentCache(fc, fid, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	type resp struct {
		value uint32
		hit   bool
	}
	got := make(map[uint32]resp)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { got[seq] = resp{value, hit} }

	objs := testObjects(srv, 512)
	if err := cc.Warm(0, objs); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	// Learn each key's bucket from the home replica itself: the first access
	// stage holds key half 0 at the bucket address.
	home := cc.Home()
	regions := home.RT.InstalledRegions(fid)
	first := -1
	for s := range regions {
		if first < 0 || s < first {
			first = s
		}
	}
	words, reg, err := home.RT.Snapshot(fid, first)
	if err != nil {
		t.Fatal(err)
	}
	byKey0 := make(map[uint32]apps.KVMsg, len(objs))
	for _, o := range objs {
		byKey0[o.Key0] = o
	}
	var victim, neighbour apps.KVMsg // neighbour sits two buckets below victim
	var neighbourAddr uint32
	found := false
	for i := 2; i < len(words) && !found; i++ {
		v, okV := byKey0[words[i]]
		n, okN := byKey0[words[i-2]]
		if okV && okN && words[i] != 0 && words[i-2] != 0 {
			victim, neighbour, neighbourAddr, found = v, n, reg.Lo+uint32(i-2), true
		}
	}
	if !found {
		t.Fatal("no two warmed keys landed two buckets apart")
	}

	// The write from the server's leaf bypasses the home: its ack evicts the
	// victim's home bucket.
	if _, err := cc.Put(1, victim.Key0, victim.Key1, victim.Value+1); err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "home eviction", func() bool { return cc.HomeEvictions >= 1 })

	// Drop the neighbour's leaf-0 copy so its next read from leaf 0 is
	// answered by the home replica.
	if _, ok := f.Leaves[0].Ctrl.ScrubWord(fid, neighbourAddr); !ok {
		t.Fatal("leaf 0 controller down")
	}
	seq, err := cc.Get(0, neighbour.Key0, neighbour.Key1)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "neighbour GET answered", func() bool {
		_, ok := got[seq]
		return ok
	})
	if r := got[seq]; !r.hit || r.value != neighbour.Value {
		t.Fatalf("neighbour read after home eviction = (%d, hit=%v), want (%d, hit)", r.value, r.hit, neighbour.Value)
	}
}

// TestConcurrentWritersSerialisePerKey: two leaves Put one key back to back —
// no simulation step in between — while a third leaf holds a copy. The second
// write must queue behind the first instead of replacing it: afterwards every
// leaf reads the last-acknowledged value, and after one more write so does
// every leaf again (a first writer whose commit installed a copy the
// directory had forgotten would serve its stale value here forever).
func TestConcurrentWritersSerialisePerKey(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 2)

	const k0, k1 = 0x5A, 0xC3
	srv.Store[apps.KeyOf(k0, k1)] = 1
	leaves := []int{0, 1, 2}
	cc, err := fabric.NewCoherentCache(fc, 9, leaves, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]uint32)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { got[seq] = value }
	acked := make(map[uint32]bool)
	var lastAcked uint32
	cc.OnWriteAck = func(leaf int, seq, value uint32) { acked[seq], lastAcked = true, value }

	read := func(leaf int) uint32 {
		t.Helper()
		seq, err := cc.Get(leaf, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, time.Second, "GET answered", func() bool { _, ok := got[seq]; return ok })
		return got[seq]
	}
	everyLeafReads := func(when string, want uint32) {
		t.Helper()
		for round := 0; round < 2; round++ { // the second round reads what the first one filled
			for _, leaf := range leaves {
				if v := read(leaf); v != want {
					t.Errorf("%s: leaf %d read %d, want the last-acknowledged %d (round %d)", when, leaf, v, want, round)
				}
			}
		}
	}

	if err := cc.Warm(2, []apps.KVMsg{{Key0: k0, Key1: k1, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)
	everyLeafReads("warm", 1) // every leaf now holds a copy

	first, err := cc.Put(0, k0, k1, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cc.Put(1, k0, k1, 3)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "both write acks", func() bool { return acked[first] && acked[second] })
	if lastAcked != 3 || srv.Store[apps.KeyOf(k0, k1)] != 3 {
		t.Fatalf("last acknowledged %d, server holds %d; want the second write's 3", lastAcked, srv.Store[apps.KeyOf(k0, k1)])
	}
	f.RunFor(50 * time.Millisecond)
	everyLeafReads("after back-to-back writes", 3)

	for _, writer := range leaves {
		want := uint32(10 + writer)
		seq, err := cc.Put(writer, k0, k1, want)
		if err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, time.Second, "single write ack", func() bool { return acked[seq] })
		f.RunFor(50 * time.Millisecond)
		everyLeafReads(fmt.Sprintf("after a single write from leaf %d", writer), want)
	}
}

// remoteHitRig is a 2×1 fabric with the KV server on leaf 1, cache frontends
// on leaves 0 and 1, and one key warmed from leaf 0. It records each GET's
// answer, the Ethernet source of the last reply leaf 0's frontend received,
// and the write acks.
type remoteHitRig struct {
	t      *testing.T
	f      *fabric.Fabric
	cc     *fabric.CoherentCache
	got    map[uint32]uint32
	at     map[uint32]time.Duration // when each GET was answered
	src    packet.MAC               // source of leaf 0's last reply
	acked  map[uint32]time.Duration // when each write was acked
	k0, k1 uint32
}

func newRemoteHitRig(t *testing.T, old uint32) *remoteHitRig {
	t.Helper()
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, srvIP := addServer(t, f, 1)
	r := &remoteHitRig{t: t, f: f, got: map[uint32]uint32{}, at: map[uint32]time.Duration{},
		acked: map[uint32]time.Duration{}, k0: 0x3C, k1: 0x4D}
	srv.Store[apps.KeyOf(r.k0, r.k1)] = old
	if r.cc, err = fabric.NewCoherentCache(fabric.NewController(f), 9, []int{0, 1}, srv.MAC(), srvIP); err != nil {
		t.Fatal(err)
	}
	r.cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { r.got[seq], r.at[seq] = value, f.Eng.Now() }
	r.cc.OnWriteAck = func(leaf int, seq, value uint32) { r.acked[seq] = f.Eng.Now() }
	for _, m := range r.cc.Set().Members {
		if m.Node.Leaf && m.Leaf == 0 {
			inner := m.Client.Handler
			m.Client.Handler = func(cl *client.Client, fr *packet.Frame) { r.src = fr.Eth.Src; inner(cl, fr) }
		}
	}
	if err := r.cc.Warm(0, []apps.KVMsg{{Key0: r.k0, Key1: r.k1, Value: old}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)
	return r
}

// get issues a GET from leaf and runs until it is answered: it returns the
// value and the virtual time the answer took.
func (r *remoteHitRig) get(leaf int) (uint32, time.Duration) {
	r.t.Helper()
	start := r.f.Eng.Now()
	seq, err := r.cc.Get(leaf, r.k0, r.k1)
	if err != nil {
		r.t.Fatal(err)
	}
	runUntil(r.t, r.f, time.Second, "GET answered", func() bool { _, ok := r.got[seq]; return ok })
	return r.got[seq], r.at[seq] - start
}

// TestRemoteHitRefillsLeaf: a Put from the server's leaf invalidates leaf 0's
// copy and, committing without crossing the home, evicts the home's. Leaf 0's
// next read is answered beyond its leaf; that answer refills leaf 0, so the
// read after it is a hit at leaf 0 that never crosses the fabric.
func TestRemoteHitRefillsLeaf(t *testing.T) {
	const v1, v2 = 51, 52
	r := newRemoteHitRig(t, v1)
	if v, _ := r.get(0); v != v1 {
		t.Fatalf("warm read on leaf0 = %d, want %d", v, v1)
	}
	seq, err := r.cc.Put(1, r.k0, r.k1, v2)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, r.f, time.Second, "write ack", func() bool { _, ok := r.acked[seq]; return ok })

	leaf0 := r.f.Leaves[0].MAC
	fills := r.cc.Fills
	if v, _ := r.get(0); v != v2 || r.src == leaf0 {
		t.Fatalf("read after the write = %d from %v, want %d from beyond leaf0 (%v)", v, r.src, v2, leaf0)
	}
	if r.cc.Fills != fills+1 {
		t.Fatalf("remote hit made %d fills, want 1", r.cc.Fills-fills)
	}
	cfg := r.f.Config()
	v, lat := r.get(0)
	if v != v2 || r.src != leaf0 {
		t.Fatalf("read after the refill = %d from %v, want %d from leaf0 (%v)", v, r.src, v2, leaf0)
	}
	if lat >= 2*cfg.HostLinkDelay+cfg.FabricLinkDelay {
		t.Fatalf("leaf-0 hit took %v: more than one host round trip (%v each way)", lat, cfg.HostLinkDelay)
	}
}

// TestRemoteHitFillNeverResurrects: leaf 1's Put reaches the home late (its
// uplink is slowed), so a leaf-0 read issued while the write commits hits the
// home's pre-write value and is answered after the write's ack. That answer
// is fine for the read, which overlapped the write, but it must not refill
// leaf 0: the next leaf-0 read must return the acknowledged value (row R1).
func TestRemoteHitFillNeverResurrects(t *testing.T) {
	const v1, v2 = 61, 62
	r := newRemoteHitRig(t, v1)
	up, err := r.f.UplinkPort(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	up.SetExtraDelay(500*time.Microsecond, 0, 0)

	put, err := r.cc.Put(1, r.k0, r.k1, v2)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, r.f, time.Second, "write committing", func() bool { return r.cc.WritePhase(put) == fabric.PhaseCommitting })
	seq, err := r.cc.Get(0, r.k0, r.k1)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, r.f, time.Second, "racing GET answered", func() bool { _, ok := r.got[seq]; return ok })
	ack, ok := r.acked[put]
	if !ok || ack > r.at[seq] || r.got[seq] != v1 || r.src == r.f.Leaves[0].MAC {
		t.Fatalf("race not staged: read answered %d from %v at %v, write acked %v (%v)", r.got[seq], r.src, r.at[seq], ok, ack)
	}
	r.f.RunFor(10 * time.Millisecond) // the delayed home install lands
	for i := 0; i < 2; i++ {
		if v, _ := r.get(0); v != v2 {
			t.Fatalf("leaf-0 read %d after the race = %d, want the acknowledged %d", i, v, v2)
		}
	}
}
