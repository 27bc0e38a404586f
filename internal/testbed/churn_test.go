package testbed

import (
	"fmt"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/workload"
)

// TestChurnStress runs a long arrival/departure sequence through the full
// stack — switch, controller, shim clients — and checks global invariants
// at the end: every operational client's placement matches the switch
// tables, no region overlaps, and the controller's books balance. The
// arrival/departure schedule is orchestrated as a chaos scenario: every
// event fires at a fixed virtual-time offset, so the whole run is one
// deterministic replayable schedule.
func TestChurnStress(t *testing.T) {
	if testing.Short() {
		t.Skip("long full-stack churn")
	}
	tb := newBed(t)
	srv := tb.AddKVServer()
	seq := workload.NewSequence(99)
	clients := map[uint16]*client.Client{}

	sc := chaos.NewScenario("churn", 99)
	at := time.Duration(0)
	events := 0
	for epoch := 0; epoch < 60; epoch++ {
		for _, ev := range seq.PoissonEpoch(epoch, 2, 1) {
			ev := ev
			verb := "release"
			if ev.Arrive {
				verb = "arrive"
			}
			sc.At(at, fmt.Sprintf("%s:fid%d", verb, ev.FID), func(*chaos.System) {
				if ev.Arrive {
					var cl *client.Client
					switch ev.Kind {
					case workload.KindCache:
						_, cl = tb.AddCache(ev.FID, srv)
					case workload.KindHeavyHitter:
						h := apps.NewHeavyHitter(10)
						cl = tb.AddClient(ev.FID, apps.HeavyHitterService(h))
						h.Bind(cl)
					default:
						cl = tb.AddClient(ev.FID, apps.CheetahSelectService())
					}
					clients[ev.FID] = cl
					_ = cl.RequestAllocation()
				} else if cl, ok := clients[ev.FID]; ok {
					_ = cl.Release()
					delete(clients, ev.FID)
				}
			})
			at += 3 * time.Second // let the serialized controller settle
			events++
		}
	}
	if err := sc.Install(tb.System()); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(at + 10*time.Second)
	if got := len(sc.Trace()); got != events {
		t.Fatalf("scenario fired %d/%d events", got, events)
	}

	operational, failed := 0, 0
	type region struct {
		fid    uint16
		lo, hi uint32
	}
	perStage := map[int][]region{}
	for fid, cl := range clients {
		switch cl.State() {
		case client.Operational:
			operational++
			pl := cl.Placement()
			for _, ap := range pl.Accesses {
				s := ap.Logical % 20
				reg, ok := tb.RT.RegionFor(fid, s)
				if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
					t.Errorf("fid %d: table/placement divergence at stage %d", fid, s)
				}
				perStage[s] = append(perStage[s], region{fid, ap.Range.Lo, ap.Range.Hi})
			}
		case client.Idle:
			failed++ // admission rejected
		default:
			t.Errorf("fid %d stuck in %v", fid, cl.State())
		}
	}
	// Isolation invariant across all tenants and stages.
	for s, list := range perStage {
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.lo < b.hi && b.lo < a.hi {
					t.Errorf("stage %d: fid %d [%d,%d) overlaps fid %d [%d,%d)",
						s, a.fid, a.lo, a.hi, b.fid, b.lo, b.hi)
				}
			}
		}
	}
	if operational < 20 {
		t.Errorf("only %d operational clients after churn", operational)
	}
	// Allocator census matches the stateful clients (stateless LB-select is
	// stateful here, so every operational client is in the allocator).
	if tb.Ctrl.Allocator().NumApps() != operational {
		t.Errorf("allocator holds %d apps, %d clients operational",
			tb.Ctrl.Allocator().NumApps(), operational)
	}
	t.Logf("churn done: %d operational, %d rejected, utilization %.3f, %d provisioning records",
		operational, failed, tb.Ctrl.Allocator().Utilization(), len(tb.Ctrl.Records))
}
