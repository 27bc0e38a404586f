package runtime

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// nopProbe keeps no switch state — the toggled tenant below executes it so
// grant install/remove never races the permanent tenant's register traffic.
var nopProbe = isa.MustAssemble("nop-probe", `
RTS
RETURN
`)

// snapGauge extracts one gauge sample from a snapshot by family name and
// rendered label pair ("" for unlabeled gauges).
func snapGauge(s *telemetry.Snapshot, name, labels string) (float64, bool) {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name {
			continue
		}
		for _, smp := range m.Samples {
			if smp.Labels == labels {
				return smp.Value, true
			}
		}
	}
	return 0, false
}

// TestTelemetryScrapeRacesGrantCommit is the consistency gate for scrapes:
// the simulation goroutine repeatedly installs and evicts a tenant's grant
// (and quarantines another), executes capsules for both through
// ExecuteProgram and publishes a snapshot between steps, while HTTP scrapers
// on other goroutines read /metrics.json. Every snapshot they decode must be
// commit-atomic — the admission gauges computed from one published control
// view never show half a commit — and a flight-recorder entry may resolve
// Live only when the snapshot's own view still holds that exact (FID, epoch)
// grant. Run under -race this also proves the scrape path shares no state
// with the simulation but the published snapshot.
func TestTelemetryScrapeRacesGrantCommit(t *testing.T) {
	r := testRuntime(t)
	reg := telemetry.NewRegistry()
	r.AttachTelemetry(reg)
	installCacheGrant(t, r, 1, 0, 1024) // permanent tenant: exercises memory
	web := httptest.NewServer(telemetry.Handler(reg))
	defer web.Close()

	const toggled = uint16(2)
	const cycles = 100
	done := make(chan struct{})
	var scrapes atomic.Uint64
	var wg sync.WaitGroup

	// Scrapers: validate commit atomicity on every snapshot they are served.
	// Once the toggled tenant has been granted at least once, fid 1 is
	// admitted and fid 2 either admitted or revoked, so the two gauges sum
	// to 2; a torn read of a commit yields 1 or 3.
	check := func(snap *telemetry.Snapshot) {
		admitted, _ := snapGauge(snap, "activermt_runtime_admitted", "")
		revoked, _ := snapGauge(snap, "activermt_runtime_revoked", "")
		epoch2, seen := snapGauge(snap, "activermt_grant_epoch", `fid="2"`)
		if seen && admitted+revoked != 2 {
			t.Errorf("mixed-epoch snapshot: admitted=%v revoked=%v (want sum 2)", admitted, revoked)
		}
		for _, e := range snap.Flights {
			if e.FID != toggled || !e.Live {
				continue
			}
			if revoked != 0 {
				t.Errorf("flight entry (fid=%d epoch=%d) live in a snapshot where the grant is revoked", e.FID, e.Epoch)
			}
			if float64(e.Epoch) != epoch2 {
				t.Errorf("flight entry live at epoch %d but snapshot grant epoch is %v", e.Epoch, epoch2)
			}
		}
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(web.URL + "/metrics.json")
				if err != nil {
					t.Error(err)
					return
				}
				var snap telemetry.Snapshot
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				check(&snap)
				scrapes.Add(1)
			}
		}()
	}

	// The simulation: commits, capsules of both tenants against whatever
	// view is current — the toggled tenant's land as executed, passthrough,
	// or revoked drops, and refusals force-record into the flight recorder —
	// and a publish after each step, waiting for a scrape in between so the
	// scrapers see every admission state even at GOMAXPROCS=1.
	cache := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	cache.Header.Flags |= packet.FlagPreload
	probe := progPacket(toggled, nopProbe, [4]uint32{})
	step := func() {
		for i := 0; i < 4; i++ {
			r.ExecuteProgram(cache)
			r.ExecuteProgram(probe)
		}
		reg.Publish()
		check(reg.Published())
		for seen := scrapes.Load(); scrapes.Load() == seen && !t.Failed(); {
			gort.Gosched()
		}
	}
	for i := 0; i < cycles && !t.Failed(); i++ {
		if _, err := r.InstallGrant(Grant{FID: toggled}); err != nil {
			t.Fatalf("install cycle %d: %v", i, err)
		}
		step()
		if i%8 == 0 {
			r.Deactivate(1)
			step()
			r.Reactivate(1)
		}
		r.RemoveGrant(toggled)
		step()
	}
	close(done)
	wg.Wait()
	t.Logf("%d HTTP scrapes against %d cycles", scrapes.Load(), cycles)

	// Terminal state: the last act was an eviction, so no flight entry for
	// the toggled tenant may survive as live.
	final := reg.Snapshot()
	sawToggled := false
	for _, e := range final.Flights {
		if e.FID != toggled {
			continue
		}
		sawToggled = true
		if e.Live {
			t.Fatalf("final snapshot holds a live flight entry for evicted fid %d (epoch %d, verdict %v)", e.FID, e.Epoch, e.Verdict)
		}
	}
	if !sawToggled {
		t.Fatal("flight recorder holds no entries for the toggled tenant; refusal force-recording is broken")
	}
	if g, _ := snapGauge(final, "activermt_runtime_revoked", ""); g != 1 {
		t.Fatalf("final revoked gauge %v, want 1", g)
	}
}

// TestGrantCommitRacesExecution pins the runtime's control/data split: a
// control plane on one goroutine installs and evicts a tenant's grant (and
// quarantines another) while the dataplane on another executes capsules for
// both against whatever view is published. Every capsule meets exactly one
// fate — executed, passed through, or refused — consistent with some
// committed state, and under -race the two goroutines share nothing but the
// published snapshots.
func TestGrantCommitRacesExecution(t *testing.T) {
	r := testRuntime(t)
	installCacheGrant(t, r, 1, 0, 1024)
	const toggled = uint16(2)
	done := make(chan struct{})
	var execs atomic.Uint64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // control plane
		defer wg.Done()
		defer close(done)
		progress := func() {
			for prev := execs.Load(); execs.Load() < prev+2; {
				gort.Gosched()
			}
		}
		for i := 0; i < 200; i++ {
			if _, err := r.InstallGrant(Grant{FID: toggled}); err != nil {
				t.Errorf("install cycle %d: %v", i, err)
				return
			}
			progress()
			if i%8 == 0 {
				r.Deactivate(1)
				r.Reactivate(1)
			}
			r.RemoveGrant(toggled)
			progress()
		}
	}()

	cache := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
	cache.Header.Flags |= packet.FlagPreload
	probe := progPacket(toggled, nopProbe, [4]uint32{})
	capsules := uint64(0)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, a := range []*packet.Active{cache, probe} {
			outs := r.ExecuteProgram(a)
			capsules++
			if len(outs) != 1 {
				t.Fatalf("fid %d: %d outputs", a.Header.FID, len(outs))
			}
			o := outs[0]
			failed := o.Active.Header.Flags&packet.FlagFailed != 0
			switch {
			case o.Executed && !o.Dropped: // executed under an admitted grant
			case !o.Executed && o.Dropped && failed: // refused: revoked or quarantined
			case !o.Executed && !o.Dropped && a.Header.FID == toggled: // never admitted yet: passthrough
			default:
				t.Fatalf("fid %d: impossible fate %+v", a.Header.FID, o)
			}
		}
		execs.Add(1)
		gort.Gosched()
	}
	wg.Wait()
	if fates := r.ProgramsRun + r.Passthrough + r.QuarantineDrops + r.RevokedDrops; fates != capsules {
		t.Fatalf("%d capsules met %d fates (run %d, passthrough %d, quarantined %d, revoked %d)",
			capsules, fates, r.ProgramsRun, r.Passthrough, r.QuarantineDrops, r.RevokedDrops)
	}
	if !r.Revoked(toggled) || r.QuarantineDrops == 0 && r.RevokedDrops == 0 {
		t.Fatalf("the race never refused a capsule: revoked %v, quarantine drops %d, revoked drops %d",
			r.Revoked(toggled), r.QuarantineDrops, r.RevokedDrops)
	}
}
