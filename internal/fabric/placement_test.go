package fabric_test

import (
	"testing"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/fabric"
)

// smallConfig shrinks every pipeline to 96 blocks per stage, the stage size
// the soak runs on.
func smallConfig(leaves, spines int) fabric.Config {
	cfg := fabric.DefaultConfig(leaves, spines)
	cfg.RMT.StageWords = 96 * 256
	cfg.Alloc.StageWords = 96 * 256
	return cfg
}

// TestPlacementSurvivesSwitchRestart crashes one replica-set member's
// controller and verifies its placement survives: the restarted controller
// rebuilds its books from the switch tables via alloc.Recover, and the
// member's client re-admits idempotently at the same placement, with an
// epoch the switch tables agree with.
func TestPlacementSurvivesSwitchRestart(t *testing.T) {
	f, err := fabric.New(smallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, _ := addServer(t, f, 1)

	const fid = 300
	set, err := fc.PlaceReplicas(fid, []int{0}, srv.MAC(), apps.CoherentCacheService)
	if err != nil {
		t.Fatal(err)
	}
	m := set.Members[0]
	node := m.Node
	prePl, ok := node.Ctrl.Allocator().PlacementFor(fid)
	if !ok {
		t.Fatalf("no placement for fid %d before crash", fid)
	}
	preRanges := rangesOf(prePl)
	if m.Client.Epoch() == 0 {
		t.Fatal("member has no grant epoch before crash")
	}

	scen := chaos.Outage("switch-outage", chaos.ControllerCrash{}, 10*time.Millisecond, 50*time.Millisecond, 1)
	if err := scen.Install(&chaos.System{Eng: f.Eng, Node: node.Node}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(200 * time.Millisecond)
	if node.Ctrl.Crashes != 1 || node.Ctrl.Restarts != 1 {
		t.Fatalf("controller crashed %d and restarted %d times, want once each", node.Ctrl.Crashes, node.Ctrl.Restarts)
	}
	if !node.Ctrl.Allocator().Recovered(fid) {
		t.Fatalf("fid %d not recovered after restart", fid)
	}

	// The client's retransmitted request upgrades the recovered entry via
	// Readmit and is answered idempotently: same placement.
	if err := m.Client.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	postPl, ok := node.Ctrl.Allocator().PlacementFor(fid)
	if !ok {
		t.Fatalf("placement for fid %d lost across restart", fid)
	}
	if got := rangesOf(postPl); !sameRanges(preRanges, got) {
		t.Fatalf("placement moved across restart: %v -> %v", preRanges, got)
	}
	// The readmission reinstalls the grant, which may advance the 7-bit
	// epoch; what matters is that the client's echoed epoch and the switch
	// tables agree so capsules keep authenticating.
	if got, want := m.Client.Epoch(), node.RT.Epoch(fid); got == 0 || got != want {
		t.Fatalf("client epoch %d disagrees with switch epoch %d after readmission", got, want)
	}
	if got := rangesOf(m.Client.Placement()); !sameRanges(preRanges, got) {
		t.Fatalf("client placement changed across restart: %v -> %v", preRanges, got)
	}
	// The audit stays clean everywhere, the untouched member included.
	for _, n := range f.Nodes() {
		if vs := n.Check(); len(vs) > 0 {
			t.Fatalf("check on %s after restart: %v", n.Name, vs)
		}
	}
	if cl := m.Client; cl.State() != client.Operational {
		t.Fatalf("member client in %v after readmission", cl.State())
	}
}

// rangesOf flattens a placement to its logical-stage word ranges.
func rangesOf(pl *alloc.Placement) [][3]uint32 {
	if pl == nil {
		return nil
	}
	out := make([][3]uint32, 0, len(pl.Accesses))
	for _, a := range pl.Accesses {
		out = append(out, [3]uint32{uint32(a.Logical), a.Range.Lo, a.Range.Hi})
	}
	return out
}

func sameRanges(a, b [][3]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlaceReplicasRejectsBadLeafBeforeAdmitting lists a leaf the fabric does
// not have after a valid one: the call fails, and no member was admitted on
// the valid leaf first — its allocator holds nothing for the FID.
func TestPlaceReplicasRejectsBadLeafBeforeAdmitting(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, _ := addServer(t, f, 1)

	const fid = 400
	if _, err := fc.PlaceReplicas(fid, []int{0, 99}, srv.MAC(), apps.CoherentCacheService); err == nil {
		t.Fatal("replica set over leaf 99 placed")
	}
	for _, n := range f.Nodes() {
		if pl, ok := n.Ctrl.Allocator().PlacementFor(fid); ok {
			t.Fatalf("%s still holds fid %d at mutant %v", n.Name, fid, pl.Mutant)
		}
	}
}

// TestCoherentCacheLeafLimit: the cache's directory is a 64-bit leaf mask,
// so a reader on leaf 64 is refused before anything is placed, and one on
// leaf 63 is served.
func TestCoherentCacheLeafLimit(t *testing.T) {
	f, err := fabric.New(smallConfig(65, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, srvIP := addServer(t, f, 0)
	if _, err := fabric.NewCoherentCache(fc, 31, []int{0, 64}, srv.MAC(), srvIP); err == nil {
		t.Fatal("cache with a reader on leaf 64 placed")
	}
	for _, n := range f.Nodes() {
		if _, ok := n.Ctrl.Allocator().PlacementFor(31); ok {
			t.Fatalf("%s holds fid 31 after the refused cache", n.Name)
		}
	}
	cc, err := fabric.NewCoherentCache(fc, 32, []int{0, 63}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatalf("cache with a reader on leaf 63: %v", err)
	}
	const k0, k1 = 0x63, 0x64
	srv.Store[apps.KeyOf(k0, k1)] = 5
	if err := cc.Warm(63, []apps.KVMsg{{Key0: k0, Key1: k1, Value: 5}}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(10 * time.Millisecond)
	seq, err := cc.Put(0, k0, k1, 6)
	if err != nil {
		t.Fatal(err)
	}
	acked := false
	cc.OnWriteAck = func(leaf int, s, value uint32) { acked = acked || s == seq }
	runUntil(t, f, time.Second, "write from leaf 0 acked", func() bool { return acked })
	if cc.InvalDelivered == 0 {
		t.Error("the write from leaf 0 did not invalidate leaf 63's copy")
	}
}
