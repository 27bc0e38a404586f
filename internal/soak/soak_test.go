package soak

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"activermt/internal/switchd"
)

// TestSoakSmoke runs a short (30 s virtual) soak with the full chaos
// schedule, the mid-run home-spine kill, and tenant churn, and requires a
// clean invariant record plus evidence that the failure machinery actually
// engaged: reroutes happened, the cache went degraded and came back, and
// orphaned tenants were reconciled.
func TestSoakSmoke(t *testing.T) {
	var csv bytes.Buffer
	res, err := Run(Config{
		Duration: 30 * time.Second,
		Seed:     7,
		CSV:      &csv,
		Progress: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %v", v)
		for _, line := range v.Trace {
			t.Logf("  trace: %s", line)
		}
	}
	if res.ReadsDone == 0 || res.Acked == 0 {
		t.Fatalf("workload did not run: %d reads, %d acked writes", res.ReadsDone, res.Acked)
	}
	if res.TenantsPlaced == 0 || res.TenantsReleased == 0 {
		t.Fatalf("tenant churn did not run: placed=%d released=%d", res.TenantsPlaced, res.TenantsReleased)
	}
	if res.ChaosInstalled == 0 {
		t.Fatal("no chaos scenarios installed")
	}
	k := res.SpineKill
	if !k.Fired || !k.Degraded || !k.Rerouted || !k.Recovered {
		t.Fatalf("spine-kill arc incomplete: %+v", k)
	}
	if res.Reroutes == 0 {
		t.Fatal("no reroutes recorded across the whole soak")
	}
	if res.P99 <= 0 || res.P99 > 10*time.Millisecond {
		t.Fatalf("read p99 = %v", res.P99)
	}
	if rows := strings.Count(csv.String(), "\n"); rows < res.Epochs {
		t.Fatalf("CSV has %d rows for %d epochs", rows, res.Epochs)
	}
	t.Logf("soak: %d epochs, %d reads (%d lost, %.0f%% hit), %d writes, %d tenants, %d chaos, p99=%v",
		res.Epochs, res.ReadsDone, res.Lost, 100*res.HitRate, res.Acked,
		res.TenantsPlaced, res.ChaosInstalled, res.P99)
}

// TestSoakDefragPassesMigrate runs a one-minute soak, in which the chaos
// rider's live migrations ride the same realloc protocol as the faults. The
// run must stay invariant-clean — migration under chaos must never produce a
// stale read, an isolation finding, or a book leak — and every defrag pass a
// node recorded must have migrated a tenant: a pass with nobody to move is
// never queued, or leaves no trace. In seed 7's minute the rider asks for
// passes that can move someone and for passes that cannot.
func TestSoakDefragPassesMigrate(t *testing.T) {
	h, err := newHarness(Config{
		Duration: time.Minute,
		Seed:     7,
		Progress: t.Logf,
	}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %v", v)
		for _, line := range v.Trace {
			t.Logf("  trace: %s", line)
		}
	}
	if res.ReadsDone == 0 || res.Acked == 0 {
		t.Fatalf("workload did not run: %d reads, %d acked writes", res.ReadsDone, res.Acked)
	}
	var passes uint64
	for _, n := range h.f.Nodes() {
		for _, rec := range n.Ctrl.Records {
			if rec.Kind != switchd.JobDefrag {
				continue
			}
			passes++
			if rec.Reallocated == 0 {
				t.Errorf("%s: the defrag pass at %v migrated nobody", n.Name, rec.Start)
			}
		}
	}
	if passes == 0 || passes != res.DefragPasses || res.DefragMigrations < passes {
		t.Fatalf("%d defrag passes recorded, %d counted, %d migrations", passes, res.DefragPasses, res.DefragMigrations)
	}
	if res.MaxFragmentation < 0 || res.MaxFragmentation > 1 {
		t.Fatalf("max fragmentation %v out of range", res.MaxFragmentation)
	}
	t.Logf("soak: %d epochs, %d defrag passes, %d migrations, max frag %.3f",
		res.Epochs, res.DefragPasses, res.DefragMigrations, res.MaxFragmentation)
}

// TestSoakSecapps runs the smoke soak with the three security-app workload
// families riding alongside the cache/tenant/chaos load: the replicated
// SYN-flood detector, the per-tenant rate limiter, and the recirculating
// heavy hitter under an armed recirculation budget. The run must stay
// invariant-clean — including the families' own per-epoch invariants
// (synflood-miss, ratelimit-enforce, recirc-budget) — and every family must
// show evidence of having actually engaged, including the budget pressure
// path (claims deferred) and the enforcement path (deliveries strictly below
// offered load).
func TestSoakSecapps(t *testing.T) {
	var csv bytes.Buffer
	res, err := Run(Config{
		Duration: 30 * time.Second,
		Seed:     7,
		Secapps:  true,
		CSV:      &csv,
		Progress: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %v", v)
		for _, line := range v.Trace {
			t.Logf("  trace: %s", line)
		}
	}
	if res.ReadsDone == 0 || res.Acked == 0 {
		t.Fatalf("baseline workload did not run: %d reads, %d acked writes", res.ReadsDone, res.Acked)
	}
	if res.SynSent == 0 {
		t.Fatal("no SYN capsules sent")
	}
	if res.SynAlarms == 0 {
		t.Fatal("no SYN-flood alarms raised — attackers never detected")
	}
	if res.RLOffered == 0 || res.RLDelivered == 0 {
		t.Fatalf("rate-limit family idle: offered=%d delivered=%d", res.RLOffered, res.RLDelivered)
	}
	if res.RLDelivered >= res.RLOffered {
		t.Fatalf("rate limiter never dropped: delivered %d of %d offered", res.RLDelivered, res.RLOffered)
	}
	if res.HHObserved == 0 || res.HHClaims == 0 {
		t.Fatalf("heavy hitter idle: observed=%d claims=%d", res.HHObserved, res.HHClaims)
	}
	if res.HHDeferred == 0 {
		t.Fatal("no claims deferred — the recirculation budget was never binding")
	}
	if !strings.Contains(csv.String(), "hh_deferred") {
		t.Fatal("CSV missing secapps columns")
	}
	t.Logf("secapps soak: %d epochs, syn=%d alarms=%d, rl=%d/%d, hh obs=%d claims=%d deferred=%d",
		res.Epochs, res.SynSent, res.SynAlarms, res.RLDelivered, res.RLOffered,
		res.HHObserved, res.HHClaims, res.HHDeferred)
}

// TestSoakSecappsRecircBudget runs the secapps soak for five minutes at
// seeds 1 and 4. Both trip the recirc-budget invariant when the heavy
// hitter's one-pass sketch is given a recirculating mutant, as it is when
// every allocator runs the least-constrained policy: the sketch's extra
// passes spend budget that no claim deferral accounts for. Under the
// default policy only the two-pass claim arm recirculates.
func TestSoakSecappsRecircBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("two 5-minute virtual soaks")
	}
	for _, seed := range []int64{1, 4} {
		res, err := Run(Config{Duration: 5 * time.Minute, Seed: seed, Secapps: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: invariant violation: %v", seed, v)
		}
		if res.HHClaims == 0 || res.HHDeferred == 0 {
			t.Errorf("seed %d: heavy hitter claims=%d deferred=%d, want both > 0", seed, res.HHClaims, res.HHDeferred)
		}
	}
}

// TestSoakBaselineCSVUnchanged pins the baseline CSV schema: with Secapps
// off, the header must not carry the security-app columns.
func TestSoakBaselineCSVUnchanged(t *testing.T) {
	var csv bytes.Buffer
	newCSVWriter(&csv, false).header()
	if strings.Contains(csv.String(), "syn_") || strings.Contains(csv.String(), "hh_") {
		t.Fatalf("baseline CSV header grew secapps columns: %s", csv.String())
	}
}

// TestSoakSeedsDisjoint checks determinism plumbing cheaply: two different
// seeds must produce different chaos histories (and a repeated seed the
// same one), visible through the installed-scenario count over a window
// long enough for several draws.
func TestSoakSeedsDisjoint(t *testing.T) {
	run := func(seed int64) *Result {
		res, err := Run(Config{
			Duration:    20 * time.Second,
			Seed:        seed,
			SpineKillAt: -1, // background chaos only; keep this test about the schedule
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		return res
	}
	a1, a2, b := run(1), run(1), run(2)
	if a1.ChaosInstalled != a2.ChaosInstalled || a1.ReadsDone != a2.ReadsDone || a1.Reroutes != a2.Reroutes {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a1.ChaosInstalled, a1.ReadsDone, a1.Reroutes,
			a2.ChaosInstalled, a2.ReadsDone, a2.Reroutes)
	}
	if a1.ReadsDone == b.ReadsDone && a1.Lost == b.Lost && a1.Reroutes == b.Reroutes {
		t.Fatalf("different seeds produced identical runs (reads=%d lost=%d reroutes=%d)",
			a1.ReadsDone, a1.Lost, a1.Reroutes)
	}
}

// TestSoakLong is the acceptance soak: a full virtual hour, thousands of
// tenant arrivals, the entire chaos library on a seeded schedule, the
// spine-kill milestone — and zero invariant violations. Gated behind
// ACTIVERMT_SOAK_LONG=1 because it runs minutes of wall time.
func TestSoakLong(t *testing.T) {
	if os.Getenv("ACTIVERMT_SOAK_LONG") != "1" {
		t.Skip("set ACTIVERMT_SOAK_LONG=1 to run the one-hour virtual soak")
	}
	res, err := Run(Config{
		Duration: time.Hour,
		Seed:     42,
		Progress: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %v", v)
		for _, line := range v.Trace {
			t.Logf("  trace: %s", line)
		}
	}
	if res.Elapsed < time.Hour {
		t.Fatalf("soak stopped early at %v", res.Elapsed)
	}
	if res.TenantsPlaced < 1000 {
		t.Fatalf("only %d tenants churned in an hour", res.TenantsPlaced)
	}
	k := res.SpineKill
	if !k.Fired || !k.Degraded || !k.Rerouted || !k.Recovered {
		t.Fatalf("spine-kill arc incomplete: %+v", k)
	}
	t.Logf("long soak: %d epochs, %d reads (%d lost), %d writes, %d tenants, %d chaos, %d reconciles, p99=%v",
		res.Epochs, res.ReadsDone, res.Lost, res.Acked, res.TenantsPlaced,
		res.ChaosInstalled, res.Reconciles, res.P99)
}
