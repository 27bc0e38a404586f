package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload x end-to-end metric of two
// reports: both values, how much worse b is than a as a share of a, and the
// bound. A row is unresolved where either report's own pass-to-pass spread
// exceeds the bound; any row beyond its bound makes the exit code 1.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err == nil {
		var b *report
		if b, err = readReport(pathB); err == nil {
			return compareReports(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareReports(a, b *report, w io.Writer) int {
	fmt.Fprintf(w, "a: commit %s, numcpu %d, gomaxprocs %d, %s, seed %d\n", a.Env.Commit, a.Env.NumCPU, a.Env.GOMAXPROCS, a.Env.GoVersion, a.Seed)
	fmt.Fprintf(w, "b: commit %s, numcpu %d, gomaxprocs %d, %s, seed %d\n", b.Env.Commit, b.Env.NumCPU, b.Env.GOMAXPROCS, b.Env.GoVersion, b.Seed)
	fmt.Fprintf(w, "%-13s %-18s %16s %16s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "")
	code := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, x := range b.Workloads {
			if x.Name == wa.Name {
				wb = x
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from b\n", wa.Name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			worse := ratio(vb-va, va)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "BEYOND BOUND"
				code = 1
			case wa.Spread[d.name] > d.bound || wb.Spread[d.name] > d.bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f)", wa.Spread[d.name], wb.Spread[d.name])
			case va == vb:
				verdict = "ok, identical"
			}
			fmt.Fprintf(w, "%-13s %-18s %16.6f %16.6f %+8.2f%% %6.1f%%  %s\n", wa.Name, d.name, va, vb, 100*worse, 100*d.bound, verdict)
		}
	}
	return code
}
