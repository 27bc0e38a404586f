package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/stats"
	"activermt/internal/workload"
)

func init() {
	register(Spec{
		ID:    "fig5a",
		Title: "Control-plane allocation time, pure workloads",
		Paper: "Allocation time per arrival for 500 instances of cache/HH/LB under most- and least-constrained policies; time collapses when placements start failing; HH exhausts after ~23 (mc) / ~57 (lc) instances, LB after ~368 (mc).",
		Run:   runFig5a,
	})
	register(Spec{
		ID:    "fig5b",
		Title: "Control-plane allocation time, mixed workload",
		Paper: "Uniformly mixed arrivals, 10 trials, EWMA alpha=0.1: inelastic apps stop fitting after ~50-150 arrivals, after which only (cheap) cache placements and failures remain.",
		Run:   runFig5b,
	})
	register(Spec{
		ID:    "fig6",
		Title: "Memory utilization vs. arrivals, pure workloads",
		Paper: "The pure cache workload saturates utilization with ~8 (mc) / ~9 (lc) instances and keeps admitting; pure LB needs hundreds of instances to peak, then stops admitting; max utilization depends on the mutant set's stage reach.",
		Run:   runFig6,
	})
}

// pureArrivals runs n same-kind arrivals and reports per-epoch wall-clock
// allocation time, utilization, and the first failing epoch.
func pureArrivals(kind workload.AppKind, pol alloc.Policy, n int) (times, utils []float64, firstFail int) {
	a := allocatorWith(pol, alloc.WorstFit, 0)
	cons := serviceConstraints(kind)
	firstFail = -1
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := a.Allocate(uint16(i+1), cons)
		elapsed := time.Since(start)
		if err != nil {
			break
		}
		times = append(times, elapsed.Seconds()*1e3) // ms
		utils = append(utils, a.Utilization())
		if res.Failed && firstFail < 0 {
			firstFail = i + 1
		}
	}
	return times, utils, firstFail
}

func runFig5a(cfg RunConfig) (*Result, error) {
	n := 500
	if cfg.Quick {
		n = 120
	}
	kinds := []workload.AppKind{workload.KindCache, workload.KindHeavyHitter, workload.KindLoadBalancer}
	pols := []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained}

	var series []*stats.Series
	res := &Result{ID: "fig5a", Title: "allocation time (ms) per arrival", Metrics: map[string]float64{}}
	for _, k := range kinds {
		for _, p := range pols {
			name := fmt.Sprintf("%s_%s", k, shortPol(p))
			times, _, firstFail := pureArrivals(k, p, n)
			s := stats.NewSeries(name)
			for i, v := range times {
				s.AddStep(i+1, v)
			}
			series = append(series, s)
			res.Metrics["first_fail_"+name] = float64(firstFail)
			res.Notes = append(res.Notes, fmt.Sprintf("%s: first failure at arrival %d", name, firstFail))
		}
	}
	res.CSV = stats.MergeCSV("epoch", series...)
	return res, nil
}

func shortPol(p alloc.Policy) string {
	if p == alloc.MostConstrained {
		return "mc"
	}
	return "lc"
}

func runFig5b(cfg RunConfig) (*Result, error) {
	n, trials := 500, 10
	if cfg.Quick {
		n, trials = 150, 3
	}
	res := &Result{ID: "fig5b", Title: "mixed-workload allocation time (ms), EWMA alpha=0.1", Metrics: map[string]float64{}}
	var series []*stats.Series
	for _, pol := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
		perEpoch := make([][]float64, n)
		for trial := 0; trial < trials; trial++ {
			a := allocatorWith(pol, alloc.WorstFit, 0)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)))
			for i := 0; i < n; i++ {
				kind := workload.AppKind(rng.Intn(3))
				start := time.Now()
				_, err := a.Allocate(uint16(i+1), serviceConstraints(kind))
				if err != nil {
					continue
				}
				perEpoch[i] = append(perEpoch[i], time.Since(start).Seconds()*1e3)
			}
		}
		s := stats.NewSeries(shortPol(pol))
		e := stats.NewEWMA(0.1)
		for i, vals := range perEpoch {
			s.AddStep(i+1, e.Add(stats.Summarize(vals).Mean))
		}
		series = append(series, s)
		res.Metrics["final_ewma_ms_"+shortPol(pol)] = s.Points[len(s.Points)-1].V
	}
	res.CSV = stats.MergeCSV("epoch", series...)
	res.Notes = append(res.Notes,
		"least-constrained considers more mutants and stays slower than most-constrained",
		"after inelastic exhaustion only cache placements succeed; failures are fast")
	return res, nil
}

func runFig6(cfg RunConfig) (*Result, error) {
	n := 500
	if cfg.Quick {
		n = 120
	}
	res := &Result{ID: "fig6", Title: "memory utilization vs. arrivals", Metrics: map[string]float64{}}
	var series []*stats.Series
	for _, k := range []workload.AppKind{workload.KindCache, workload.KindHeavyHitter, workload.KindLoadBalancer} {
		for _, p := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
			name := fmt.Sprintf("%s_%s", k, shortPol(p))
			_, utils, _ := pureArrivals(k, p, n)
			s := stats.NewSeries(name)
			sat := -1
			var maxU float64
			for _, u := range utils {
				if u > maxU {
					maxU = u
				}
			}
			for i, u := range utils {
				s.AddStep(i+1, u)
				if sat < 0 && u >= maxU*0.999 {
					sat = i + 1
				}
			}
			series = append(series, s)
			res.Metrics["max_util_"+name] = maxU
			res.Metrics["saturation_epoch_"+name] = float64(sat)
			res.Notes = append(res.Notes, fmt.Sprintf("%s: peak utilization %s reached by arrival %d", name, fmtF(maxU), sat))
		}
	}
	res.CSV = stats.MergeCSV("epoch", series...)
	return res, nil
}
