package fabric_test

import (
	"fmt"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/fabric"
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
