package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testScale shrinks every pass to a hundredth of its rounds.
const testScale = 0.01

// measureSmall makes minPasses small passes of the named workloads.
func measureSmall(t *testing.T, seed int64, traced bool, scale float64, names ...string) *report {
	return measureInto(t, t.TempDir(), seed, traced, scale, names...)
}

func measureInto(t *testing.T, dir string, seed int64, traced bool, scale float64, names ...string) *report {
	t.Helper()
	var ws []*workload
	for _, n := range names {
		w := workloadByName(n)
		if w == nil {
			t.Fatalf("no workload %q", n)
		}
		ws = append(ws, w)
	}
	rep, err := measure(ws, seed, 0, traced, scale, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range rep.Workloads {
		if !wr.Correct {
			t.Fatalf("%s: not correct: %v", wr.Name, wr.Errors)
		}
	}
	return rep
}

// exactMetrics is everything that must repeat for a seed: the virtual
// results and every count. Host times and heap sizes are left out.
func exactMetrics(wr *workloadReport) map[string]float64 {
	out := map[string]float64{
		"virt_lat_us_mean": wr.EndToEnd["virt_lat_us_mean"],
		"hit_ratio":        wr.EndToEnd["hit_ratio"],
		"ok_ratio":         wr.EndToEnd["ok_ratio"],
		"attempted":        float64(wr.PassOps),
	}
	for _, d := range perLayer {
		if d.source == "count" && !strings.HasPrefix(d.name, "host.") {
			out[d.name] = wr.PerLayer[d.name]
		}
	}
	return out
}

func TestSameSeedRepeats(t *testing.T) {
	names := []string{"get_hit", "get_miss", "fabric_rw", "tenant_churn"}
	a := measureSmall(t, 7, false, testScale, names...)
	b := measureSmall(t, 7, false, testScale, names...)
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if ea, eb := exactMetrics(wa), exactMetrics(wb); !reflect.DeepEqual(ea, eb) {
			t.Errorf("%s: same seed, different exact metrics:\n%v\n%v", wa.Name, ea, eb)
		}
		// Allocation counts are exact up to the runtime's own strays (map
		// growth with a per-process hash seed, timers).
		for _, m := range []string{"op_allocs", "op_bytes"} {
			if d := math.Abs(wa.EndToEnd[m]-wb.EndToEnd[m]) / wa.EndToEnd[m]; d > 0.002 {
				t.Errorf("%s: %s %v vs %v", wa.Name, m, wa.EndToEnd[m], wb.EndToEnd[m])
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	w := workloadByName("get_miss")
	sh := w.shape(0.25)
	var hit [2]float64
	var first [2][]kvOp
	for i, seed := range []int64{1, 2} {
		build, err := w.prepare(seed, sh)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPass(build, sh, sh.rounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.tally.failed != 0 {
			t.Fatalf("seed %d: %v", seed, res.tally.errs)
		}
		hit[i] = ratio(float64(res.tally.hits), float64(res.tally.gets))
		sys, err := build(nil)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = sys.(*kvSystem).in.ops[:64]
	}
	if reflect.DeepEqual(first[0], first[1]) {
		t.Error("seeds 1 and 2 generated the same op sequence")
	}
	if math.Abs(hit[0]-hit[1]) > 0.02 {
		t.Errorf("hit_ratio %v vs %v: more than 0.02 apart", hit[0], hit[1])
	}
	if hit[0] < 0.40 || hit[0] > 0.52 {
		t.Errorf("get_miss hit_ratio %v outside 0.40-0.52", hit[0])
	}
}

func TestWorkloadsSeparateLayers(t *testing.T) {
	rep := measureSmall(t, 3, false, 0.05, "get_hit", "get_miss", "fabric_rw")
	hit, miss, fab := rep.Workloads[0], rep.Workloads[1], rep.Workloads[2]
	if v := hit.PerLayer["kvserver.requests_per_op"]; v != 0 {
		t.Errorf("get_hit reaches the server %v times per op", v)
	}
	if v := hit.EndToEnd["hit_ratio"]; v != 1 {
		t.Errorf("get_hit hit_ratio %v", v)
	}
	if v := miss.PerLayer["kvserver.requests_per_op"]; v <= 0.4 {
		t.Errorf("get_miss reaches the server only %v times per op", v)
	}
	if f, h := fab.PerLayer["switchd.frames_per_op"], hit.PerLayer["switchd.frames_per_op"]; f < 2*h {
		t.Errorf("fabric_rw crosses %v switches per op, get_hit %v: not twice", f, h)
	}
	if v := fab.PerLayer["fabric.inval_per_put"]; v == 0 {
		t.Error("fabric_rw writes invalidate nothing")
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	dir := t.TempDir()
	rep := measureInto(t, dir, 5, true, 0.05, "get_miss", "tenant_churn")
	for _, wr := range rep.Workloads {
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.name]; !ok {
				t.Errorf("%s: %s not reported", wr.Name, d.name)
			}
		}
		if c := wr.PerLayer["trace.coverage"]; c < 0.9 || c > 1.001 {
			t.Errorf("%s: trace.coverage %v", wr.Name, c)
		}
	}
	churn := rep.Workloads[1].PerLayer
	for _, name := range []string{"alloc.allocate_ns_p50", "runtime.install_ns", "runtime.toggle_ns", "runtime.remove_ns", "client.grant_ns"} {
		if churn[name] <= 0 {
			t.Errorf("tenant_churn: %s = %v", name, churn[name])
		}
	}
	if _, err := os.Stat(dir + "/trace-get_miss.jsonl"); err != nil {
		t.Error(err)
	}
}

func TestEstimatorIgnoresSlowRounds(t *testing.T) {
	clean := []int64{100, 120, 90, 110, 105, 95}
	passes := make([][]int64, 5)
	for p := range passes {
		passes[p] = append([]int64(nil), clean...)
		// Interference only ever adds: every pass gets two slow rounds,
		// never the same two.
		passes[p][p] += 400
		passes[p][(p+3)%len(clean)] += 75
	}
	var want int64
	for _, c := range clean {
		want += c
	}
	if got := minSum(passes); got != want {
		t.Errorf("minSum = %d, want the clean %d", got, want)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		seen[n] = true
	}

	var got, want []string
	for _, w := range decl.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads declared %v, run %v", got, want)
	}

	got, want = nil, nil
	for _, m := range decl.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		got = append(got, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, d := range endToEnd {
		want = append(want, fmt.Sprintf("%s %s %s %g", d.name, d.unit, d.better, d.bound))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end declared %v, printed %v", got, want)
	}

	got, want = nil, nil
	for _, m := range decl.PerLayer {
		check(m.Name, m.Unit)
		got = append(got, strings.Join([]string{m.Name, m.Unit, m.Better}, " "))
	}
	for _, d := range perLayer {
		want = append(want, strings.Join([]string{d.name, d.unit, d.better}, " "))
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer declared %v, printed %v", got, want)
	}
	if len(decl.PerLayer) > 128 || len(decl.EndToEnd) > 16 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json outgrew the contract's limits")
	}
}

// TestResultLine checks the last line the command prints against the
// contract: exactly four keys, every declared metric, each with its unit.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := measureSmall(t, 1, traced, testScale, "get_hit")
		line, err := json.Marshal(rep.result())
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("bad result line %s", line)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("metric %s missing or without its unit", d.name)
			}
			if !traced && m.Value != nil && *m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", d.name)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(opNs, allocs, spread float64) *report {
		e := values{}
		for _, d := range endToEnd {
			e[d.name] = 1
		}
		e["op_ns"], e["op_allocs"] = opNs, allocs
		return &report{Workloads: []*workloadReport{{Name: "get_hit", EndToEnd: e, Spread: values{"op_ns": spread}}}}
	}
	var out bytes.Buffer
	if code := compareReports(mk(1000, 20, 0.01), mk(1100, 20, 0.01), &out); code != 0 {
		t.Errorf("10 %% slower is within op_ns' bound, exit code %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok, identical") {
		t.Errorf("identical rows not marked:\n%s", out.String())
	}
	out.Reset()
	if code := compareReports(mk(1000, 20, 0.01), mk(1000, 23, 0.01), &out); code != 1 || !strings.Contains(out.String(), "BEYOND BOUND") {
		t.Errorf("15 %% more allocations must fail, exit code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(mk(1000, 20, 0.30), mk(1050, 20, 0.01), &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread beyond the bound must read unresolved, exit code %d\n%s", code, out.String())
	}
	out.Reset()
	better := mk(1000, 20, 0.01)
	better.Workloads[0].EndToEnd["hit_ratio"] = 0.5
	if code := compareReports(mk(1000, 20, 0.01), better, &out); code != 1 {
		t.Errorf("a halved hit_ratio must fail, exit code %d\n%s", code, out.String())
	}
}
