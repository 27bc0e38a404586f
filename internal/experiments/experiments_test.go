package experiments

import (
	"strings"
	"testing"

	"activermt/internal/alloc"
	"activermt/internal/workload"
)

func quickCfg() RunConfig { return RunConfig{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig5a", "fig5b", "fig6", "fig7a", "fig7b", "fig7c", "fig7d",
		"fig8a", "fig8b", "fig9a", "fig9b", "fig10", "fig11", "fig12",
		"sec5", "sec61", "sec62",
		"abl-recirc", "abl-l2", "abl-netvrm", "abl-align"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, s := range Registry {
		if s.Title == "" || s.Paper == "" || s.Run == nil {
			t.Errorf("experiment %s incomplete", s.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestServiceConstraintsMatchPaperShapes(t *testing.T) {
	// The three applications' constraint sets drive every capacity number;
	// pin their structure.
	cache := serviceConstraints(workload.KindCache)
	if !cache.Elastic || len(cache.Accesses) != 3 {
		t.Errorf("cache constraints: %+v", cache)
	}
	hh := serviceConstraints(workload.KindHeavyHitter)
	if hh.Elastic || len(hh.Accesses) != 3 {
		t.Errorf("hh constraints: %+v", hh)
	}
	if hh.Accesses[0].Demand != 16 || hh.Accesses[1].Demand != 16 {
		t.Errorf("hh sketch demands: %+v", hh.Accesses)
	}
	lb := serviceConstraints(workload.KindLoadBalancer)
	if lb.Elastic || len(lb.Accesses) != 2 {
		t.Errorf("lb constraints: %+v", lb)
	}
	// The paper's headline mutant structure: HH has exactly one
	// most-constrained mutant.
	ms, _, err := alloc.DefaultShape().Mutants(hh, alloc.MostConstrained)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ms); n != 1 {
		t.Errorf("hh mc mutants = %d, want 1 (paper)", n)
	}
}

func TestPureWorkloadCapacities(t *testing.T) {
	// Section 6.1's capacity numbers: HH exhausts after 23 instances under
	// most-constrained; LB after 368.
	_, _, hhFail := pureArrivals(workload.KindHeavyHitter, alloc.MostConstrained, 40)
	if hhFail != 24 {
		t.Errorf("hh mc first failure at %d, want 24 (capacity 23)", hhFail)
	}
	_, _, lbFail := pureArrivals(workload.KindLoadBalancer, alloc.MostConstrained, 400)
	if lbFail != 369 {
		t.Errorf("lb mc first failure at %d, want 369 (capacity 368)", lbFail)
	}
	// The elastic cache admits everything.
	_, _, cacheFail := pureArrivals(workload.KindCache, alloc.MostConstrained, 150)
	if cacheFail != -1 {
		t.Errorf("cache mc failed at %d, want no failures", cacheFail)
	}
}

func TestFig5aQuick(t *testing.T) {
	res, err := runFig5a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.CSV, "epoch,") {
		t.Errorf("csv header: %q", res.CSV[:40])
	}
	// HH exhausts much earlier under mc than lc.
	mc := res.Metrics["first_fail_hh_mc"]
	lc := res.Metrics["first_fail_hh_lc"]
	if mc <= 0 || (lc > 0 && lc <= mc) {
		t.Errorf("hh exhaustion mc=%v lc=%v, want mc earlier", mc, lc)
	}
}

func TestFig6Quick(t *testing.T) {
	res, err := runFig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The cache saturates with a handful of instances (paper: 8-9).
	if sat := res.Metrics["saturation_epoch_cache_mc"]; sat < 3 || sat > 30 {
		t.Errorf("cache mc saturation at %v arrivals, want single digits", sat)
	}
	// LC reaches more stages, so its peak utilization is at least MC's.
	if res.Metrics["max_util_cache_lc"] < res.Metrics["max_util_cache_mc"]-0.01 {
		t.Errorf("lc peak %v below mc %v", res.Metrics["max_util_cache_lc"], res.Metrics["max_util_cache_mc"])
	}
	// MC cache can reach only the first ~11 stages: utilization around
	// half the switch.
	if u := res.Metrics["max_util_cache_mc"]; u < 0.3 || u > 0.65 {
		t.Errorf("cache mc peak utilization %v, want ~0.5", u)
	}
}

func TestFig7Quick(t *testing.T) {
	for _, id := range []string{"fig7a", "fig7b", "fig7c", "fig7d"} {
		res, err := runFig7(quickCfg(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.CSV == "" || len(res.Metrics) == 0 {
			t.Errorf("%s produced no data", id)
		}
		switch id {
		case "fig7a":
			// Least-constrained converges near the paper's ~0.75; our
			// most-constrained programs are tighter than the authors'
			// (documented in EXPERIMENTS.md) and plateau lower.
			if u := res.Metrics["final_lc"]; u < 0.5 || u > 1.0 {
				t.Errorf("lc utilization converged to %v, want ~0.75", u)
			}
			if u := res.Metrics["final_mc"]; u < 0.15 {
				t.Errorf("mc utilization converged to %v, want a plateau", u)
			}
		case "fig7b":
			// Beyond ~100 residents fewer than half of arrivals place.
			if r := res.Metrics["placement_ratio_mc"]; r >= 0.95 {
				t.Errorf("mc placement ratio %v, want saturation below 1", r)
			}
		case "fig7d":
			if j := res.Metrics["final_mc"]; j < 0.8 {
				t.Errorf("fairness converged to %v, want high (paper >0.99)", j)
			}
		}
	}
}

func TestFig8bQuick(t *testing.T) {
	res, err := runFig8b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Latency increases with program length, linearly.
	r10, r20, r30 := res.Metrics["rtt_us_10"], res.Metrics["rtt_us_20"], res.Metrics["rtt_us_30"]
	if !(r10 < r20 && r20 < r30) {
		t.Errorf("RTTs not increasing: %v %v %v", r10, r20, r30)
	}
	// ~0.5us per 20-instruction pass (the paper's measured slope).
	perPass := res.Metrics["slope_us_per_instr"] * 20
	if perPass < 0.3 || perPass > 1.6 {
		t.Errorf("per-pass latency %vus, want ~0.5us", perPass)
	}
	// Active processing costs more than the plain echo baseline.
	if res.Metrics["baseline_us"] >= r10 {
		t.Errorf("baseline %v >= 10-instr RTT %v", res.Metrics["baseline_us"], r10)
	}
	if res.CSV == "" {
		t.Error("no CSV emitted")
	}
}

func TestFig12Quick(t *testing.T) {
	res, err := runFig12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Finer granularity must not be cheaper than the coarsest for the
	// mixed workload (the paper's headline trend).
	fine := res.Metrics["mixed_512B_ms"]
	coarse := res.Metrics["mixed_4096B_ms"]
	if fine <= 0 || coarse <= 0 {
		t.Fatalf("missing metrics: %v", res.Metrics)
	}
	if fine < coarse*0.5 {
		t.Errorf("512B (%vms) dramatically cheaper than 4KB (%vms); expected finer >= coarser", fine, coarse)
	}
}

func TestTablesQuick(t *testing.T) {
	res, err := runSec5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["activermt"] != 0.83 || res.Metrics["netvrm"] >= 0.5 {
		t.Errorf("sec5 metrics: %v", res.Metrics)
	}

	res, err = runSec61(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["mutants_hh_mc"] != 1 {
		t.Errorf("hh mc mutants = %v, want 1", res.Metrics["mutants_hh_mc"])
	}
	for _, k := range []string{"cache", "hh", "lb"} {
		if res.Metrics["mutants_"+k+"_lc"] <= res.Metrics["mutants_"+k+"_mc"] {
			t.Errorf("%s: lc mutants (%v) not greater than mc (%v)",
				k, res.Metrics["mutants_"+k+"_lc"], res.Metrics["mutants_"+k+"_mc"])
		}
	}
	if res.Metrics["monolithic_cache_instances"] < 10 || res.Metrics["monolithic_cache_instances"] > 30 {
		t.Errorf("monolithic instances = %v, want ~22", res.Metrics["monolithic_cache_instances"])
	}
}

func TestSec62Quick(t *testing.T) {
	res, err := runSec62(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["speedup"] < 5 {
		t.Errorf("provisioning speedup %vx, want order-of-magnitude", res.Metrics["speedup"])
	}
	if res.Metrics["activermt_provision_s"] <= 0 || res.Metrics["activermt_provision_s"] > 10 {
		t.Errorf("provisioning %vs out of plausible range", res.Metrics["activermt_provision_s"])
	}
}
