package fabric_test

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/fabric"
	"activermt/internal/telemetry"
)

// addServer attaches a KV server to a leaf and returns it.
func addServer(t *testing.T, f *fabric.Fabric, leaf int) (*apps.KVServer, netip.Addr) {
	t.Helper()
	srv, err := f.AddKVServer(leaf)
	if err != nil {
		t.Fatalf("attach server: %v", err)
	}
	return srv, srv.IP()
}

// runUntil steps the simulation until cond holds or the deadline passes.
func runUntil(t *testing.T, f *fabric.Fabric, d time.Duration, what string, cond func() bool) {
	t.Helper()
	limit := f.Eng.Now() + d
	for f.Eng.Now() < limit && !cond() {
		if f.Eng.Pending() == 0 {
			break
		}
		f.Eng.Step()
	}
	if !cond() {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// testObjects builds n distinct KV objects and seeds the server store.
func testObjects(srv *apps.KVServer, n int) []apps.KVMsg {
	objs := make([]apps.KVMsg, n)
	for i := range objs {
		o := apps.KVMsg{
			Key0:  uint32(i + 1),
			Key1:  uint32(i*7 + 3),
			Value: uint32(1000 + i),
		}
		objs[i] = o
		srv.Store[apps.KeyOf(o.Key0, o.Key1)] = o.Value
	}
	return objs
}

// TestFabricCacheEndToEnd runs the cache exemplar on a 5-switch leaf-spine
// fabric (3 leaves, 2 spines): a replicated coherent cache on two reader
// leaves plus the home spine, warmed from one leaf, serving correct values
// from both leaves with a high hit rate.
func TestFabricCacheEndToEnd(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Nodes()); got != 5 {
		t.Fatalf("fabric has %d switches, want 5", got)
	}
	fc := fabric.NewController(f)
	reg := telemetry.NewRegistry()
	fc.AttachTelemetry(reg)

	srv, srvIP := addServer(t, f, 2)
	objs := testObjects(srv, 32)

	cc, err := fabric.NewCoherentCache(fc, 7, []int{0, 1}, srv.MAC(), srvIP)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cc.Set().Members); got != 3 {
		t.Fatalf("replica set has %d members, want 3 (2 leaves + home spine)", got)
	}
	if cc.Set().Epoch == 0 {
		t.Fatal("replica set has no grant epoch")
	}
	home := cc.Home()
	if home.Leaf {
		t.Fatal("home node is a leaf")
	}

	if err := cc.Warm(0, objs); err != nil {
		t.Fatal(err)
	}
	f.RunFor(100 * time.Millisecond)

	values := make(map[uint32]uint32) // seq -> value
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { values[seq] = value }
	type want struct {
		seq   uint32
		value uint32
	}
	var wants []want
	for _, leaf := range []int{0, 1} {
		for _, o := range objs {
			seq, err := cc.Get(leaf, o.Key0, o.Key1)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, want{seq, o.Value})
		}
	}
	runUntil(t, f, time.Second, "all GETs answered", func() bool {
		return len(values) == len(wants)
	})
	for _, w := range wants {
		if got := values[w.seq]; got != w.value {
			t.Fatalf("seq %d returned %d, want %d", w.seq, got, w.value)
		}
	}
	if hr := cc.HitRate(); hr < 0.9 {
		t.Fatalf("hit rate %.2f, want >= 0.9 (hits=%d misses=%d)", hr, cc.Hits, cc.Misses)
	}

	// Set-only placement: a switch outside the replica set holds the FID
	// neither in its allocator books nor in its TCAM.
	inSet := make(map[*fabric.Node]bool)
	for _, m := range cc.Set().Members {
		inSet[m.Node] = true
	}
	outside := 0
	for _, n := range f.Nodes() {
		if inSet[n] {
			continue
		}
		outside++
		if _, ok := n.Ctrl.Allocator().App(7); ok {
			t.Fatalf("%s outside the replica set holds fid 7 in its allocator", n.Name)
		}
		if regions := n.RT.InstalledRegions(7); len(regions) > 0 {
			t.Fatalf("%s outside the replica set has TCAM regions for fid 7: %v", n.Name, regions)
		}
	}
	if outside != 2 {
		t.Fatalf("%d switches outside the replica set, want 2 (leaf2 and the other spine)", outside)
	}

	// Fabric telemetry: occupancy gauges exist per switch, read from the
	// allocators at collection.
	var buf bytes.Buffer
	telemetry.WritePrometheus(&buf, reg.Snapshot())
	text := buf.String()
	for _, name := range []string{"leaf0", "leaf1", "spine0", "spine1"} {
		needle := `activermt_fabric_switch_occupancy_blocks{switch="` + name + `"}`
		if !strings.Contains(text, needle) {
			t.Fatalf("occupancy gauge for %s missing from exposition:\n%s", name, text)
		}
	}
}

// TestControlTransit verifies the relay primitives directly: a client on
// one leaf negotiates with a spine and with a remote leaf, with requests
// and responses transiting intermediate switches.
func TestControlTransit(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, target := range []*fabric.Node{f.Spines[0], f.Leaves[1]} {
		cl, err := f.AddClient(0, uint16(40+i), target, apps.CoherentCacheService())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			t.Fatalf("negotiating with %s: %v", target.Name, err)
		}
		if !target.RT.Admitted(cl.FID()) {
			t.Fatalf("fid %d not admitted on %s", cl.FID(), target.Name)
		}
	}
	// The ingress leaf carried the control conversation without consuming it.
	if f.Leaves[0].Switch.ControlTransit == 0 {
		t.Fatal("leaf0 never transited control traffic")
	}
}
