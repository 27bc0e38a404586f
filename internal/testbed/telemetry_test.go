package testbed

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/telemetry"
)

// requiredFamilies is the acceptance floor for a live scrape of the fully
// instrumented testbed: per-stage occupancy, per-tenant blocks, guard
// violation totals, the packet latency histogram, the program-cache hit
// ratio, and the device packet counter the monotonicity check rides on.
var requiredFamilies = []string{
	"activermt_stage_occupancy_words",
	"activermt_alloc_tenant_blocks",
	"activermt_guard_violations_total",
	"activermt_packet_latency_ns",
	"activermt_progcache_hit_ratio",
	"activermt_device_packets_total",
}

// scrapeProm fetches url and validates the exposition line by line: every
// sample's value must parse as a float. It returns the set of families seen
// (from # TYPE lines) and the total device packet count.
func scrapeProm(t *testing.T, url string) (families map[string]bool, packets float64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	families = map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 3 && f[1] == "TYPE" {
				families[f[2]] = true
			}
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("malformed sample line %q: %v", line, err)
		}
		if fields[0] == "activermt_device_packets_total" {
			packets = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families, packets
}

// familyTotal sums every sample of one family in a JSON snapshot.
func familyTotal(snap *telemetry.Snapshot, name string) (float64, bool) {
	for i := range snap.Metrics {
		if snap.Metrics[i].Name != name {
			continue
		}
		total := 0.0
		for _, s := range snap.Metrics[i].Samples {
			total += s.Value
		}
		return total, true
	}
	return 0, false
}

// TestTelemetrySmokeScrapeDuringChaos is the end-to-end observability smoke
// test: a fully instrumented testbed serves its published snapshots over
// HTTP while the canned adversarial-tenant scenario runs; a scrape of the
// snapshot published before the attack and one of the snapshot published
// after it must both be well-formed, expose every acceptance-floor family,
// and show a monotone packet counter — and the JSON exposition must decode
// to a snapshot whose guard and chaos counters saw the attack and whose
// flight recorder sampled real capsules.
func TestTelemetrySmokeScrapeDuringChaos(t *testing.T) {
	tb := newBed(t)
	reg := tb.EnableTelemetry()
	web := httptest.NewServer(telemetry.Handler(reg))
	defer web.Close()

	srv := tb.AddKVServer()
	cache, victimCl := tb.AddCache(1, srv)
	if err := victimCl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, attCl := tb.AddCache(2, srv)
	if err := attCl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Victim traffic, then the first scrape: every required family must
	// already be exposed and packets must be flowing.
	if rate := victimWorkload(t, tb, srv, cache); rate <= 0 {
		t.Fatalf("victim hit rate = %v before the attack", rate)
	}
	reg.Publish()
	famMid, pktMid := scrapeProm(t, web.URL+"/metrics")
	for _, f := range requiredFamilies {
		if !famMid[f] {
			t.Errorf("mid-run scrape missing family %s", f)
		}
	}
	if pktMid <= 0 {
		t.Fatalf("mid-run packet counter = %v, want > 0", pktMid)
	}

	// The canned adversarial-tenant arc runs underneath the live endpoint.
	_, advMAC, _ := tb.NewHostID()
	adv := chaos.NewAdversary(tb.Eng, advMAC, tb.Switch.MAC())
	tb.AddHost(adv)
	adv.Arm(2, attCl.Epoch())
	sc := chaos.AdversarialTenant(adv, 1, 42)
	if err := sc.Install(tb.System()); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(2 * time.Second)
	if got := len(sc.Trace()); got != 5 {
		t.Fatalf("scenario fired %d/5 events:\n%s", got, chaos.TraceString(sc.Trace()))
	}

	reg.Publish()
	famFin, pktFin := scrapeProm(t, web.URL+"/metrics")
	for _, f := range requiredFamilies {
		if !famFin[f] {
			t.Errorf("final scrape missing family %s", f)
		}
	}
	if pktFin < pktMid {
		t.Fatalf("packet counter went backwards across the attack: %v -> %v", pktMid, pktFin)
	}

	// JSON exposition: the same published snapshot, in which the attack is
	// visible to the guard and the chaos event counter, and the flight
	// recorder sampled the run.
	resp, err := http.Get(web.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON exposition does not decode: %v", err)
	}
	if v, ok := familyTotal(&snap, "activermt_guard_violations_total"); !ok || v == 0 {
		t.Errorf("guard violation total = %v (present=%v), want > 0 after the attack", v, ok)
	}
	if v, ok := familyTotal(&snap, "activermt_chaos_events_total"); !ok || v != 5 {
		t.Errorf("chaos event total = %v (present=%v), want 5", v, ok)
	}
	if len(snap.Flights) == 0 {
		t.Error("flight recorder empty after hundreds of capsules")
	}
}
