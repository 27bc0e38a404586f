package experiments

import (
	"fmt"
	"strings"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/baseline"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
	"activermt/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out and the extensions
// of the paper's Section 7. These are not paper figures; they quantify our
// implementation decisions.
func init() {
	register(Spec{
		ID:    "abl-recirc",
		Title: "Ablation: recirculation fairness controller (Section 7.2)",
		Paper: "The paper notes recirculation lets one service steal bandwidth and suggests rate-limiting; this ablation measures drop rates and pass inflation with the limiter on and off.",
		Run:   runAblRecirc,
	})
	register(Spec{
		ID:    "abl-l2",
		Title: "Ablation: extended runtime with merged L2 forwarding (Section 7.1)",
		Paper: "Merging switch.p4 L2 support costs one active stage and ~4% latency; this ablation measures the mutant-count and capacity impact.",
		Run:   runAblL2,
	})
	register(Spec{
		ID:    "abl-netvrm",
		Title: "Ablation: NetVRM-style virtualization vs. ActiveRMT allocation",
		Paper: "NetVRM's fixed power-of-two pages and uniform (non-per-stage) allocation waste memory; ActiveRMT allocates arbitrary-size per-stage regions (Section 2.3).",
		Run:   runAblNetVRM,
	})
	register(Spec{
		ID:    "abl-align",
		Title: "Ablation: aligned vs. independent cache regions",
		Paper: "Our cache requests one alignment group (Listing 1's single-MAR bucket layout needs identical per-stage offsets); this ablation quantifies what the alignment requirement costs in utilization.",
		Run:   runAblAlign,
	})
}

func runAblRecirc(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "abl-recirc", Title: "recirculating-packet drop rate with/without the limiter", Metrics: map[string]float64{}}

	run := func(limited bool) (executed, dropped, passes uint64) {
		rt, err := runtime.New(rmt.DefaultConfig())
		if err != nil {
			panic(err)
		}
		rt.AdmitStateless(1) // the aggressor: long recirculating programs
		rt.AdmitStateless(2) // the victim: single-pass programs
		var now time.Duration
		if limited {
			rt.EnableRecircLimiter(runtime.RecircPolicy{Budget: 10, Window: time.Second}, func() time.Duration { return now })
		}
		long := &isa.Program{Name: "aggressor"}
		for i := 0; i < 59; i++ {
			long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpNop})
		}
		long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpReturn})
		short := isa.MustAssemble("victim", "NOP\nRETURN")
		for i := 0; i < 500; i++ {
			now += time.Millisecond
			a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, Program: long}
			a.Header.SetType(packet.TypeProgram)
			for _, out := range rt.ExecuteProgram(a) {
				if out.Dropped {
					dropped++
				} else {
					executed++
					passes += uint64(out.Passes)
				}
			}
			b := &packet.Active{Header: packet.ActiveHeader{FID: 2}, Program: short}
			b.Header.SetType(packet.TypeProgram)
			rt.ExecuteProgram(b)
		}
		return
	}

	exOff, drOff, paOff := run(false)
	exOn, drOn, paOn := run(true)
	res.Metrics["unlimited_passes"] = float64(paOff)
	res.Metrics["limited_passes"] = float64(paOn)
	res.Metrics["unlimited_dropped"] = float64(drOff)
	res.Metrics["limited_dropped"] = float64(drOn)
	res.Metrics["bandwidth_inflation_off"] = float64(paOff) / float64(exOff)
	var b strings.Builder
	b.WriteString("limiter,executed,dropped,total_passes\n")
	fmt.Fprintf(&b, "off,%d,%d,%d\n", exOff, drOff, paOff)
	fmt.Fprintf(&b, "on,%d,%d,%d\n", exOn, drOn, paOn)
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		fmt.Sprintf("without the limiter the aggressor inflates bandwidth %.1fx; with a 10-pass/s budget %d of its packets are policed",
			res.Metrics["bandwidth_inflation_off"], drOn))
	return res, nil
}

func runAblL2(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "abl-l2", Title: "baseline vs. extended (L2-merged) runtime", Metrics: map[string]float64{}}
	base := rmt.DefaultConfig()
	ext := runtime.ExtendedForwardingConfig(base)

	var b strings.Builder
	b.WriteString("runtime,stages,pass_latency_ns,cache_mc_mutants,peak_utilization\n")
	for _, row := range []struct {
		name string
		c    rmt.Config
	}{{"baseline", base}, {"extended", ext}} {
		cons := serviceConstraints(workload.KindCache)
		// Capacity: admit caches until failure on an allocator shaped like
		// this runtime.
		acfg := alloc.DefaultConfig()
		acfg.NumStages = row.c.NumStages
		acfg.NumIngress = row.c.NumIngress
		ms, _, _ := acfg.Mutants(cons, alloc.MostConstrained) // infeasible counts as 0
		mutants := len(ms)
		a, err := alloc.New(acfg)
		if err != nil {
			return nil, err
		}
		// The cache is elastic, so measure what a saturating population can
		// reach rather than an admission count.
		for fid := uint16(1); fid <= 40; fid++ {
			if r, err := a.Allocate(fid, cons); err != nil || r.Failed {
				break
			}
		}
		util := a.Utilization()
		fmt.Fprintf(&b, "%s,%d,%d,%d,%.4f\n", row.name, row.c.NumStages, row.c.PassLatency.Nanoseconds(), mutants, util)
		res.Metrics[row.name+"_mutants"] = float64(mutants)
		res.Metrics[row.name+"_peak_util"] = util
		res.Metrics[row.name+"_latency_ns"] = float64(row.c.PassLatency.Nanoseconds())
	}
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		"the merged-L2 runtime loses one (egress) stage of active processing and ~4% latency (Section 7.1); the cache's reachable pool shrinks accordingly")
	return res, nil
}

func runAblNetVRM(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "abl-netvrm", Title: "utilization: ActiveRMT allocator vs. NetVRM-style pages", Metrics: map[string]float64{}}
	blocks := alloc.DefaultConfig().BlocksPerStage()

	// Same inelastic arrival sequence into both allocators: mixed HH
	// (16-block) and LB (2-block) demands.
	demands := []int{16, 2, 1, 16, 2, 3, 5, 2}
	arrived, nvAdmitted := 0, 0
	nv := baseline.NewNetVRM(blocks)
	a := allocatorWith(alloc.MostConstrained, alloc.WorstFit, 0)
	activeAdmitted := 0
	for fid := uint16(1); fid <= 200; fid++ {
		d := demands[int(fid)%len(demands)]
		arrived++
		if _, err := nv.Alloc(fid, d); err == nil {
			nvAdmitted++
		}
		cons := &alloc.Constraints{
			Name: "x", ProgLen: 6, IngressIdx: -1,
			Accesses: []alloc.Access{{Index: 2, Demand: d}},
		}
		if r, err := a.Allocate(fid, cons); err == nil && !r.Failed {
			activeAdmitted++
		}
	}
	res.Metrics["netvrm_admitted"] = float64(nvAdmitted)
	res.Metrics["activermt_admitted"] = float64(activeAdmitted)
	res.Metrics["netvrm_utilization"] = nv.Utilization(blocks)
	res.Metrics["activermt_utilization"] = a.Utilization()
	var b strings.Builder
	b.WriteString("allocator,admitted,utilization\n")
	fmt.Fprintf(&b, "netvrm,%d,%.4f\n", nvAdmitted, nv.Utilization(blocks))
	fmt.Fprintf(&b, "activermt,%d,%.4f\n", activeAdmitted, a.Utilization())
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		fmt.Sprintf("NetVRM admits %d instances (pages rounded to powers of two over half the pool); ActiveRMT admits %d with per-stage arbitrary-size regions",
			nvAdmitted, activeAdmitted))
	return res, nil
}

func runAblAlign(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "abl-align", Title: "aligned vs. independent cache regions", Metrics: map[string]float64{}}
	n := 120
	if cfg.Quick {
		n = 60
	}
	run := func(aligned bool) (util float64, admitted int) {
		a := allocatorWith(alloc.LeastConstrained, alloc.WorstFit, 0)
		cons := serviceConstraints(workload.KindCache)
		if !aligned {
			for i := range cons.Accesses {
				cons.Accesses[i].AlignGroup = 0
			}
		}
		for fid := uint16(1); fid <= uint16(n); fid++ {
			if r, err := a.Allocate(fid, cons); err == nil && !r.Failed {
				admitted++
			}
		}
		return a.Utilization(), admitted
	}
	ua, na := run(true)
	ui, ni := run(false)
	res.Metrics["aligned_utilization"] = ua
	res.Metrics["aligned_admitted"] = float64(na)
	res.Metrics["independent_utilization"] = ui
	res.Metrics["independent_admitted"] = float64(ni)
	var b strings.Builder
	b.WriteString("layout,admitted,utilization\n")
	fmt.Fprintf(&b, "aligned,%d,%.4f\n", na, ua)
	fmt.Fprintf(&b, "independent,%d,%.4f\n", ni, ui)
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		"alignment (identical per-stage offsets, required by Listing 1's single-MAR bucket walk) costs some utilization versus hypothetical independent regions")
	return res, nil
}
