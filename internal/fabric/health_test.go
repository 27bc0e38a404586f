package fabric_test

import (
	"testing"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/fabric"
	"activermt/internal/netsim"
	"activermt/internal/telemetry"
)

// TestHealthDetectsOutageAndReroutes kills one leaf<->spine link and checks
// the monitor's full arc: probes miss, the link is declared dead within
// 20 ms of the cut (the default timers detect in 3 × 5 ms), the affected
// paths move to the surviving spine, and on revert the link is declared
// alive at the first echo while its routes stay away for the 8 ms re-trust
// delay before they restore.
func TestHealthDetectsOutageAndReroutes(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	// A destination host on leaf 2 gives leaf 0 a spine-hashed route to
	// watch.
	srv, _ := addServer(t, f, 2)
	h := fabric.NewHealth(f)
	var events []fabric.LinkEvent
	h.Subscribe(func(ev fabric.LinkEvent) { events = append(events, ev) })
	h.Start()

	// Let a few probe rounds establish the baseline: all links answer.
	f.RunFor(50 * time.Millisecond)
	if h.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	if h.FlapsObserved != 0 {
		t.Fatalf("healthy fabric declared %d flaps", h.FlapsObserved)
	}

	// Kill leaf0<->spine0.
	link, err := f.UplinkPort(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := chaos.Partition{Ports: []*netsim.Port{link, link.Peer()}}
	cut := f.Eng.Now()
	out.Apply(nil)

	runUntil(t, f, 100*time.Millisecond, "link declared down", func() bool {
		return h.LinkDown(0, 0)
	})
	if took := f.Eng.Now() - cut; took > 20*time.Millisecond {
		t.Fatalf("cut link declared down %v after the cut, want within 20ms", took)
	}
	if len(events) == 0 || !events[0].Down || events[0].Leaf != 0 || events[0].Spine != 0 {
		t.Fatalf("unexpected first event: %+v", events)
	}
	if f.LinkUp(0, 0) {
		t.Fatal("fabric routing still trusts the dead link")
	}
	if f.Reroutes == 0 {
		t.Fatal("no routes repointed after link death")
	}
	// Every destination leaf 0 can still reach must now avoid spine 0.
	for _, l := range f.Leaves {
		if l.Index == 0 {
			continue
		}
		if sp := f.CurrentSpineFor(0, l.MAC); sp == nil || sp.Index == 0 {
			t.Fatalf("leaf0 route to %s does not cross live spine 1", l.Name)
		}
	}
	if sp := f.CurrentSpineFor(0, srv.MAC()); sp == nil || sp.Index == 0 {
		t.Fatal("leaf0 route to the server does not cross live spine 1")
	}

	// Revert: the next answered probe declares the link alive, and the
	// routes restore after the sync window, not before.
	out.Revert(nil)
	runUntil(t, f, 100*time.Millisecond, "link declared up", func() bool {
		return !h.LinkDown(0, 0)
	})
	f.RunFor(8*time.Millisecond - time.Microsecond)
	if f.LinkUp(0, 0) {
		t.Fatal("routes restored less than 8ms after the first echo")
	}
	f.RunFor(2 * time.Millisecond)
	if !f.LinkUp(0, 0) {
		t.Fatal("routing state not restored after recovery")
	}
	if h.Recoveries == 0 {
		t.Fatal("recovery not counted")
	}
	h.Stop()
}

// TestReroutesCountPathsNotHosts: a link or drain change counts the
// (source leaf, destination leaf, hashed spine) paths whose spine moved, so
// the count is the same however many hosts are attached. On a 3x2 fabric,
// downing link 0-0 moves the four leaf-0 paths hashed to spine 0; draining
// spine 1 then moves the two leaf-1<->leaf-2 paths hashed to it, while the
// leaf-0 paths keep spine 1, their only live one.
func TestReroutesCountPathsNotHosts(t *testing.T) {
	for _, hosts := range []int{0, 40} {
		f, err := fabric.New(fabric.DefaultConfig(3, 2))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < hosts; i++ {
			addServer(t, f, i%3)
		}
		f.SetLinkState(0, 0, true)
		link := f.Reroutes
		f.SetSpineDrain(1, true)
		if drain := f.Reroutes - link; link != 4 || drain != 2 {
			t.Errorf("%d hosts: link down rerouted %d, drain %d; want 4 and 2", hosts, link, drain)
		}
	}
}

// TestHealthSurvivesCrashedController pins the failure-domain split: a
// crashed spine CONTROLLER must not read as a dead link — probes are
// answered by the data plane.
func TestHealthSurvivesCrashedController(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	h := fabric.NewHealth(f)
	h.Start()
	f.Spines[0].Ctrl.Crash()
	f.RunFor(time.Duration(fabric.MissThreshold+3) * fabric.ProbeInterval)
	if h.LinkDown(0, 0) || h.LinkDown(1, 0) {
		t.Fatal("crashed controller misread as dead link")
	}
	if h.FlapsObserved != 0 {
		t.Fatalf("declared %d flaps with all links up", h.FlapsObserved)
	}
	f.Spines[0].Ctrl.Restart()
	h.Stop()
}

// linkFlaps reads activermt_fabric_link_flaps_total from a registry.
func linkFlaps(t *testing.T, reg *telemetry.Registry) float64 {
	t.Helper()
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "activermt_fabric_link_flaps_total" {
			return m.Samples[0].Value
		}
	}
	t.Fatal("activermt_fabric_link_flaps_total not registered")
	return 0
}

// TestHealthLinkFlap drives the flap injector against the monitor: the link
// must be declared dead at least once, recover after the flapping stops, and
// the fabric's routing state must end consistent (link trusted again). The
// fabric controller's link-flap counter reads the monitor's count, and 0
// before a monitor exists.
func TestHealthLinkFlap(t *testing.T) {
	f, err := fabric.New(fabric.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	fabric.NewController(f).AttachTelemetry(reg)
	if n := linkFlaps(t, reg); n != 0 {
		t.Fatalf("link flaps = %v with no monitor, want 0", n)
	}
	h := fabric.NewHealth(f)
	h.Start()
	link, err := f.UplinkPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	flap := chaos.Flap("link-flap", chaos.Partition{Ports: []*netsim.Port{link, link.Peer()}}, 0, 80*time.Millisecond, 4, 1)
	if err := flap.Install(&chaos.System{Eng: f.Eng}); err != nil {
		t.Fatal(err)
	}
	f.RunFor(600 * time.Millisecond)
	if link.DownTransitions() < 4 {
		t.Fatalf("flap injector produced %d down transitions, want >= 4", link.DownTransitions())
	}
	if h.FlapsObserved == 0 {
		t.Fatal("monitor observed no flaps")
	}
	if n := linkFlaps(t, reg); n != float64(h.FlapsObserved) {
		t.Fatalf("link flaps telemetry = %v, monitor declared %d", n, h.FlapsObserved)
	}
	runUntil(t, f, 200*time.Millisecond, "link stabilizes up", func() bool {
		return !h.LinkDown(0, 1)
	})
	f.RunFor(fabric.RestoreDelay + time.Millisecond)
	if !f.LinkUp(0, 1) {
		t.Fatal("routing did not restore after flapping stopped")
	}
	h.Stop()
}
