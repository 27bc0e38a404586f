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

// smallConfig shrinks every pipeline to 96 blocks per stage so a modest
// demand overflows one device and must spill along the path.
func smallConfig(leaves, spines int) fabric.Config {
	cfg := fabric.DefaultConfig(leaves, spines)
	cfg.RMT.StageWords = 96 * 256
	cfg.Alloc.StageWords = 96 * 256
	return cfg
}

// TestPlacementSpillsAcrossPath places a tenant whose demand exceeds one
// pipeline and checks the fabric invariants: the demand spills across >= 2
// on-path switches, every block lives on the tenant's traffic path only,
// and the per-switch isolation audit stays clean with multiple tenants.
func TestPlacementSpillsAcrossPath(t *testing.T) {
	f, err := fabric.New(smallConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, _ := addServer(t, f, 1)

	// 150 blocks per access vs a 96-block stage: no single device can hold
	// it, so the placement must engage at least two on-path switches.
	ten, err := fc.PlaceTenant(100, 0, srv.MAC(), 150, apps.CoherentCacheService)
	if err != nil {
		t.Fatal(err)
	}
	if len(ten.Shards) < 2 {
		t.Fatalf("demand of 150 blocks placed on %d device(s), want >= 2 (spill)", len(ten.Shards))
	}
	if ten.Unplaced != 0 {
		t.Fatalf("%d blocks left unplaced", ten.Unplaced)
	}
	if fc.Spills == 0 {
		t.Fatal("spill counter not incremented")
	}

	// Path-only invariant: no off-path switch holds any of the tenant's
	// FIDs — not in its allocator books, not in its TCAM.
	onPath := make(map[*fabric.Node]bool)
	for _, n := range ten.Path {
		onPath[n] = true
	}
	offPath := 0
	for _, n := range f.Nodes() {
		if onPath[n] {
			continue
		}
		offPath++
		for _, sh := range ten.Shards {
			fid := sh.FID
			if _, ok := n.Ctrl.Allocator().App(fid); ok {
				t.Fatalf("off-path switch %s holds fid %d in its allocator", n.Name, fid)
			}
			if regions := n.RT.InstalledRegions(fid); len(regions) > 0 {
				t.Fatalf("off-path switch %s has TCAM regions for fid %d: %v", n.Name, fid, regions)
			}
		}
	}
	if offPath == 0 {
		t.Fatal("test topology has no off-path switch to check")
	}

	// A second spilled tenant from another leaf shares the path's spine and
	// far leaf; the guard's isolation auditor must stay clean per switch.
	if _, err := fc.PlaceTenant(200, 2, srv.MAC(), 150, apps.CoherentCacheService); err != nil {
		t.Fatal(err)
	}
	for _, n := range f.Nodes() {
		if vs := n.Check(); len(vs) > 0 {
			t.Fatalf("check on %s: %v", n.Name, vs)
		}
	}
}

// TestPlacementSurvivesSwitchRestart crashes one shard-holding switch's
// controller and verifies the placement survives: the restarted controller
// rebuilds its books from the switch tables via alloc.Recover, and the
// shard's client re-admits idempotently at the same placement and epoch.
func TestPlacementSurvivesSwitchRestart(t *testing.T) {
	f, err := fabric.New(smallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fc := fabric.NewController(f)
	srv, _ := addServer(t, f, 1)

	ten, err := fc.PlaceTenant(300, 0, srv.MAC(), 150, apps.CoherentCacheService)
	if err != nil {
		t.Fatal(err)
	}
	if len(ten.Shards) < 2 {
		t.Fatalf("placed on %d device(s), want spill across >= 2", len(ten.Shards))
	}
	shard := ten.Shards[0]
	node := shard.Node
	prePl, ok := node.Ctrl.Allocator().PlacementFor(shard.FID)
	if !ok {
		t.Fatalf("no placement for fid %d before crash", shard.FID)
	}
	preRanges := rangesOf(prePl)
	if shard.Client.Epoch() == 0 {
		t.Fatal("shard has no grant epoch before crash")
	}

	scen := chaos.Outage("switch-outage", chaos.ControllerCrash{}, 10*time.Millisecond, 50*time.Millisecond, 1)
	if err := scen.Install(&chaos.System{Eng: f.Eng, Node: node.Node}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(200 * time.Millisecond)
	if node.Ctrl.Crashes != 1 || node.Ctrl.Restarts != 1 {
		t.Fatalf("controller crashed %d and restarted %d times, want once each", node.Ctrl.Crashes, node.Ctrl.Restarts)
	}
	if !node.Ctrl.Allocator().Recovered(shard.FID) {
		t.Fatalf("fid %d not recovered after restart", shard.FID)
	}

	// The client's retransmitted request upgrades the recovered entry via
	// Readmit and is answered idempotently: same placement, same epoch.
	if err := shard.Client.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	postPl, ok := node.Ctrl.Allocator().PlacementFor(shard.FID)
	if !ok {
		t.Fatalf("placement for fid %d lost across restart", shard.FID)
	}
	if got := rangesOf(postPl); !sameRanges(preRanges, got) {
		t.Fatalf("placement moved across restart: %v -> %v", preRanges, got)
	}
	// The readmission reinstalls the grant, which may advance the 7-bit
	// epoch; what matters is that the client's echoed epoch and the switch
	// tables agree so capsules keep authenticating.
	if got, want := shard.Client.Epoch(), node.RT.Epoch(shard.FID); got == 0 || got != want {
		t.Fatalf("client epoch %d disagrees with switch epoch %d after readmission", got, want)
	}
	if got := rangesOf(shard.Client.Placement()); !sameRanges(preRanges, got) {
		t.Fatalf("client placement changed across restart: %v -> %v", preRanges, got)
	}
	// Epoch alignment still holds against the untouched second shard's
	// device, and the audit stays clean everywhere.
	for _, n := range f.Nodes() {
		if vs := n.Check(); len(vs) > 0 {
			t.Fatalf("check on %s after restart: %v", n.Name, vs)
		}
	}
	if cl := shard.Client; cl.State() != client.Operational {
		t.Fatalf("shard client in %v after readmission", cl.State())
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
