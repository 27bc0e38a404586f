package fabric_test

import (
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/fabric"
)

// TestCacheDegradedHomeOutage partitions the coherent cache's home spine
// mid-traffic and drives the full degraded arc: detection drains the home,
// writes keep committing over surviving spines with no stale read anywhere,
// and on heal the home is resynchronized before the drain lifts.
func TestCacheDegradedHomeOutage(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0x51, 0x52
	const v1, v2, v3 = 100, 200, 300
	srv.Store[apps.KeyOf(k0, k1)] = v1

	cc, err := fabric.NewCoherentCache(fc, 21, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	h := fabric.NewHealth(f)
	cc.WatchHealth(h)
	h.Start()

	type resp struct {
		value uint32
		hit   bool
	}
	got := make(map[uint32]resp)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { got[seq] = resp{value, hit} }
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
	put := func(leaf int, v uint32) {
		t.Helper()
		before := cc.WriteAcks
		if _, err := cc.Put(leaf, k0, k1, v); err != nil {
			t.Fatal(err)
		}
		runUntil(t, f, 2*time.Second, "write acked", func() bool {
			return cc.WriteAcks > before
		})
	}

	// Baseline: warm, read from both leaves, confirm coherence healthy.
	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)
	if r := get(0); r.value != v1 {
		t.Fatalf("warm read leaf0 = %d, want %d", r.value, v1)
	}
	if r := get(1); r.value != v1 {
		t.Fatalf("warm read leaf1 = %d, want %d", r.value, v1)
	}

	// Kill the home spine's fabric links.
	home := cc.Home().Index
	part := chaos.Partition{Ports: f.SpinePorts(home)}
	part.Apply(nil)
	runUntil(t, f, time.Second, "degraded entry", func() bool { return cc.Degraded() })
	if !f.Drained(home) {
		t.Fatal("home spine not drained in degraded mode")
	}
	if fc.DegradedEntries != 1 {
		t.Fatalf("controller counted %d degraded entries, want 1", fc.DegradedEntries)
	}

	// Degraded writes: invalidation hairpins never cross the fabric, the
	// commit reroutes — and the no-stale invariant must hold on both leaves.
	put(0, v2)
	if r := get(1); r.value != v2 {
		t.Fatalf("degraded read leaf1 = %d (hit=%v), want %d", r.value, r.hit, v2)
	}
	if r := get(0); r.value != v2 {
		t.Fatalf("degraded read leaf0 = %d, want %d", r.value, v2)
	}
	if srv.Store[apps.KeyOf(k0, k1)] != v2 {
		t.Fatalf("server store = %d, want %d", srv.Store[apps.KeyOf(k0, k1)], v2)
	}

	// Heal: the home must be resynchronized (the skipped installs wiped)
	// before the drain lifts.
	part.Revert(nil)
	runUntil(t, f, time.Second, "degraded exit", func() bool { return !cc.Degraded() })
	if cc.HomeSyncs == 0 {
		t.Fatal("no home resync on recovery")
	}
	if fc.DegradedExits != 1 {
		t.Fatalf("controller counted %d degraded exits, want 1", fc.DegradedExits)
	}
	f.RunFor(fabric.RestoreDelay + 10*time.Millisecond)
	if f.Drained(home) {
		t.Fatal("home still drained after recovery")
	}

	// Post-heal reads cross the home again and must see the degraded-era
	// write, not the pre-outage home copy.
	if r := get(1); r.value != v2 {
		t.Fatalf("post-heal read leaf1 = %d, want %d", r.value, v2)
	}
	put(1, v3)
	if r := get(0); r.value != v3 {
		t.Fatalf("post-heal read leaf0 = %d, want %d", r.value, v3)
	}
	h.Stop()
}

// TestCacheVerifyAndRepair forces replica divergence (one member loses its
// grant) and checks the repair: the set is re-placed under a fresh FID, the
// old FID unpinned on every member, the frontends rebound, old SRAM wiped,
// and the cache serves correct values again.
func TestCacheVerifyAndRepair(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 1)

	const k0, k1 = 0x61, 0x62
	const v1 = 444
	srv.Store[apps.KeyOf(k0, k1)] = v1

	cc, err := fabric.NewCoherentCache(fc, 31, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Warm(0, []apps.KVMsg{{Key0: k0, Key1: k1, Value: v1}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(50 * time.Millisecond)

	if !cc.SetConsistent() {
		t.Fatal("fresh replica set reads as inconsistent")
	}
	if repaired, err := cc.VerifyAndRepair(41); err != nil || repaired {
		t.Fatalf("consistent set repaired (%v, %v)", repaired, err)
	}

	// Diverge: one member drops its grant.
	if err := cc.Set().Members[0].Client.Release(); err != nil {
		t.Fatal(err)
	}
	f.RunFor(time.Second)
	if cc.SetConsistent() {
		t.Fatal("divergence not detected")
	}
	repaired, err := cc.VerifyAndRepair(41)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("repair did not run")
	}
	if !cc.SetConsistent() {
		t.Fatal("set still inconsistent after repair")
	}
	if cc.Set().FID != 41 {
		t.Fatalf("repaired set FID = %d, want 41", cc.Set().FID)
	}
	if cc.Repairs != 1 || fc.RePlacements == 0 {
		t.Fatalf("repair accounting: repairs=%d replacements=%d", cc.Repairs, fc.RePlacements)
	}
	// The old members were released and unpinned: a tenant later admitted
	// under FID 31 on any of them may be defragmented again.
	for _, m := range cc.Set().Members {
		if m.Node.Ctrl.Pinned(31) || !m.Node.Ctrl.Pinned(41) {
			t.Errorf("%s pins FID 31: %v, FID 41: %v; want only 41", m.Node.Name, m.Node.Ctrl.Pinned(31), m.Node.Ctrl.Pinned(41))
		}
	}
	f.RunFor(50 * time.Millisecond) // let the wipes land

	// The repaired cache must serve the authoritative value.
	var last struct {
		seq, value uint32
	}
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { last.seq, last.value = seq, value }
	seq, err := cc.Get(0, k0, k1)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, f, time.Second, "post-repair read", func() bool { return last.seq == seq })
	if last.value != v1 {
		t.Fatalf("post-repair read = %d, want %d", last.value, v1)
	}
}
