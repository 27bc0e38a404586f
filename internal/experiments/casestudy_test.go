package experiments

import (
	"strings"
	"testing"
)

func TestFig5bQuick(t *testing.T) {
	res, err := runFig5b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["final_ewma_ms_mc"] < 0 || res.Metrics["final_ewma_ms_lc"] < 0 {
		t.Errorf("metrics: %v", res.Metrics)
	}
	if !strings.Contains(res.CSV, "mc") || !strings.Contains(res.CSV, "lc") {
		t.Error("missing policy series")
	}
}

func TestFig8aQuick(t *testing.T) {
	res, err := runFig8a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["admissions"] < 5 {
		t.Fatalf("only %v admissions", res.Metrics["admissions"])
	}
	// Provisioning lands at sub-10s timescales and is dominated by table
	// updates (asserted per-record in the testbed tests); here check the
	// aggregate shape.
	mean := res.Metrics["provision_mean_s"]
	if mean <= 0 || mean > 10 {
		t.Errorf("mean provisioning %vs", mean)
	}
	if res.Metrics["provision_p99_s"] < mean {
		t.Error("p99 below mean")
	}
}

func TestFig9aCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack case study")
	}
	res, err := runFig9a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The monitor found hot keys and the cache serves a healthy fraction
	// of the Zipf traffic afterwards.
	if res.Metrics["hot_keys_extracted"] < 5 {
		t.Errorf("extracted %v hot keys", res.Metrics["hot_keys_extracted"])
	}
	if hr := res.Metrics["steady_hit_rate"]; hr < 0.2 {
		t.Errorf("steady hit rate %v, want substantial", hr)
	}
	// Context switch at the ~second timescale (paper: slightly over half a
	// second).
	if cs := res.Metrics["context_switch_s"]; cs <= 0 || cs > 5 {
		t.Errorf("context switch %vs", cs)
	}
}

func TestFig9bMultiTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack multi-tenant run")
	}
	res, err := runFig9b(quickCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	// All four instances end up serving hits.
	for i := 1; i <= 4; i++ {
		key := "steady_hit_rate_" + string(rune('0'+i))
		if hr := res.Metrics[key]; hr < 0.1 {
			t.Errorf("instance %d steady hit rate %v", i, hr)
		}
	}
	// The fourth arrival disrupted someone (sharing).
	totalRealloc := 0.0
	for i := 1; i <= 4; i++ {
		totalRealloc += res.Metrics["reallocations_"+string(rune('0'+i))]
	}
	if totalRealloc == 0 {
		t.Error("no instance was reallocated; expected the fourth arrival to force sharing")
	}
}

func TestFig10Fine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack fine-timescale run")
	}
	res, err := runFig9b(quickCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV == "" {
		t.Fatal("no data")
	}
	// Fine bins: at least hundreds of samples.
	if lines := strings.Count(res.CSV, "\n"); lines < 100 {
		t.Errorf("only %d bins", lines)
	}
}

func TestFig11Quick(t *testing.T) {
	res, err := runFig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 11's robust ordering: worst fit beats best fit on
	// utilization (failure rates need the full-length run to separate
	// from noise; see EXPERIMENTS.md for the full numbers).
	wf := res.Metrics["wf_utilization_mean"]
	bf := res.Metrics["bf_utilization_mean"]
	if wf < bf {
		t.Errorf("wf utilization %v below bf %v", wf, bf)
	}
	// All four schemes produced all four metrics.
	for _, sc := range []string{"wf", "ff", "bf", "realloc"} {
		for _, m := range []string{"utilization", "realloc", "fairness", "failrate"} {
			if _, ok := res.Metrics[sc+"_"+m+"_median"]; !ok {
				t.Errorf("missing %s_%s", sc, m)
			}
		}
	}
	// One seed, one CSV: the rows come out in a fixed order, byte for byte.
	again, err := runFig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if again.CSV != res.CSV {
		t.Errorf("two runs of one seed wrote different CSVs:\n%s\n%s", res.CSV, again.CSV)
	}
}
