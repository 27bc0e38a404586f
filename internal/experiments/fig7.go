package experiments

import (
	"fmt"

	"activermt/internal/alloc"
	"activermt/internal/stats"
	"activermt/internal/workload"
)

func init() {
	register(Spec{
		ID:    "fig7a",
		Title: "Online utilization under Poisson arrivals/departures",
		Paper: "Arrivals ~ Poisson(2), departures ~ Poisson(1), mixed apps, 1000 epochs, 10 trials: both policies converge to ~75% utilization; least-constrained is higher early.",
		Run:   func(cfg RunConfig) (*Result, error) { return runFig7(cfg, "fig7a") },
	})
	register(Spec{
		ID:    "fig7b",
		Title: "Degree of concurrency (resident applications)",
		Paper: "Population grows over time; least-constrained places more; beyond ~100 residents fewer than half of arrivals can be placed.",
		Run:   func(cfg RunConfig) (*Result, error) { return runFig7(cfg, "fig7b") },
	})
	register(Spec{
		ID:    "fig7c",
		Title: "Reallocation frequency among cache instances",
		Paper: "Fraction of resident cache apps reallocated per epoch (EWMA alpha=0.6) rises initially, then stabilizes once stages hold multiple cache mutants.",
		Run:   func(cfg RunConfig) (*Result, error) { return runFig7(cfg, "fig7c") },
	})
	register(Spec{
		ID:    "fig7d",
		Title: "Jain fairness among cache instances",
		Paper: "Fairness dips while the allocator fills memory, then converges above 0.99 under most-constrained (slightly lower for least-constrained).",
		Run:   func(cfg RunConfig) (*Result, error) { return runFig7(cfg, "fig7d") },
	})
}

// onlineTrace is one trial's measurements, one entry per epoch.
type onlineTrace struct {
	util, resident, reallocFrac, jain []float64
	caches, arrivals, fails           []int // resident cache instances; arrivals and how many of them failed
}

// runOnline simulates the Section 6.1 online workload on a bare allocator.
func runOnline(pol alloc.Policy, scheme alloc.Scheme, seed int64, epochs int) *onlineTrace {
	a := allocatorWith(pol, scheme, 0)
	seq := workload.NewSequence(seed)
	kinds := map[uint16]workload.AppKind{}
	tr := &onlineTrace{}
	for epoch := 0; epoch < epochs; epoch++ {
		arrivals, fails := 0, 0
		reallocated := map[uint16]bool{}
		for _, ev := range seq.PoissonEpoch(epoch, 2, 1) {
			if !ev.Arrive {
				delete(kinds, ev.FID)
				changed, err := a.Release(ev.FID)
				if err != nil {
					continue
				}
				for _, pl := range changed {
					reallocated[pl.FID] = true
				}
				continue
			}
			arrivals++
			res, err := a.Allocate(ev.FID, serviceConstraints(ev.Kind))
			if err != nil || res.Failed {
				fails++
				seq.Drop(ev.FID)
				continue
			}
			kinds[ev.FID] = ev.Kind
			for _, pl := range res.Reallocated {
				reallocated[pl.FID] = true
			}
		}
		// Census of resident cache instances.
		cacheCount, cacheRealloc := 0, 0
		var cacheTotals []float64
		for fid, k := range kinds {
			if k != workload.KindCache {
				continue
			}
			cacheCount++
			if reallocated[fid] {
				cacheRealloc++
			}
			if app, ok := a.App(fid); ok {
				cacheTotals = append(cacheTotals, float64(app.TotalBlocks()))
			}
		}
		frac := 0.0
		if cacheCount > 0 {
			frac = float64(cacheRealloc) / float64(cacheCount)
		}
		tr.util = append(tr.util, a.Utilization())
		tr.resident = append(tr.resident, float64(a.NumApps()))
		tr.reallocFrac = append(tr.reallocFrac, frac)
		tr.jain = append(tr.jain, stats.JainIndex(cacheTotals))
		tr.caches = append(tr.caches, cacheCount)
		tr.arrivals = append(tr.arrivals, arrivals)
		tr.fails = append(tr.fails, fails)
	}
	return tr
}

// fig7Cache memoizes the expensive online simulation across the four
// sub-figures within one process.
var fig7Cache = map[string][]*onlineTrace{}

func fig7Traces(cfg RunConfig, pol alloc.Policy) []*onlineTrace {
	epochs, trials := 1000, 10
	if cfg.Quick {
		epochs, trials = 200, 3
	}
	key := fmt.Sprintf("%v-%d-%d-%d", pol, epochs, trials, cfg.Seed)
	if tr, ok := fig7Cache[key]; ok {
		return tr
	}
	out := make([]*onlineTrace, trials)
	for t := 0; t < trials; t++ {
		out[t] = runOnline(pol, alloc.WorstFit, cfg.Seed+int64(t)*131, epochs)
	}
	fig7Cache[key] = out
	return out
}

// aggregate merges one metric across trials into mean/min/max series.
func aggregate(traces []*onlineTrace, pick func(*onlineTrace) []float64, name string, alpha float64) []*stats.Series {
	n := 0
	for _, tr := range traces {
		if len(pick(tr)) > n {
			n = len(pick(tr))
		}
	}
	mean := stats.NewSeries(name + "_mean")
	min := stats.NewSeries(name + "_min")
	max := stats.NewSeries(name + "_max")
	var ew *stats.EWMA
	if alpha > 0 {
		ew = stats.NewEWMA(alpha)
	}
	for i := 0; i < n; i++ {
		var lo, hi, sum float64
		cnt := 0
		for _, tr := range traces {
			vs := pick(tr)
			if i >= len(vs) {
				continue
			}
			v := vs[i]
			if cnt == 0 || v < lo {
				lo = v
			}
			if cnt == 0 || v > hi {
				hi = v
			}
			sum += v
			cnt++
		}
		if cnt == 0 {
			continue
		}
		m := sum / float64(cnt)
		if ew != nil {
			m = ew.Add(m)
		}
		mean.AddStep(i, m)
		min.AddStep(i, lo)
		max.AddStep(i, hi)
	}
	return []*stats.Series{mean, min, max}
}

func runFig7(cfg RunConfig, id string) (*Result, error) {
	res := &Result{ID: id, Metrics: map[string]float64{}}
	var series []*stats.Series
	for _, pol := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
		traces := fig7Traces(cfg, pol)
		tag := shortPol(pol)
		var ss []*stats.Series
		switch id {
		case "fig7a":
			res.Title = "utilization per epoch (mean/min/max across trials)"
			ss = aggregate(traces, func(t *onlineTrace) []float64 { return t.util }, "util_"+tag, 0)
		case "fig7b":
			res.Title = "resident applications per epoch"
			ss = aggregate(traces, func(t *onlineTrace) []float64 { return t.resident }, "resident_"+tag, 0)
			var placed, arrivals int
			for _, t := range traces {
				for e, n := range t.arrivals {
					placed += n - t.fails[e]
					arrivals += n
				}
			}
			res.Metrics["placement_ratio_"+tag] = float64(placed) / float64(arrivals)
		case "fig7c":
			res.Title = "fraction of cache instances reallocated per epoch (EWMA alpha=0.6)"
			ss = aggregate(traces, func(t *onlineTrace) []float64 { return t.reallocFrac }, "realloc_"+tag, 0.6)
		case "fig7d":
			res.Title = "Jain fairness among cache instances"
			ss = aggregate(traces, func(t *onlineTrace) []float64 { return t.jain }, "jain_"+tag, 0)
		}
		series = append(series, ss...)
		last := ss[0].Points[len(ss[0].Points)-1].V
		res.Metrics["final_"+tag] = last
		res.Notes = append(res.Notes, fmt.Sprintf("%s: final mean %s", tag, fmtF(last)))
	}
	res.CSV = stats.MergeCSV("epoch", series...)
	return res, nil
}
