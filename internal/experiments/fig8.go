package experiments

import (
	"fmt"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/stats"
	"activermt/internal/switchd"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

func init() {
	register(Spec{
		ID:    "fig8a",
		Title: "Provisioning time breakdown over an online sequence",
		Paper: "Provisioning grows as more elastic apps must be reallocated, then levels off slightly over a second; table updates dominate, snapshotting stays small and bounded.",
		Run:   runFig8a,
	})
	register(Spec{
		ID:    "fig8b",
		Title: "Forwarding latency vs. program length",
		Paper: "RTT for programs of 10/20/30 NOPs+RTS vs. an echo baseline: latency increases linearly with program length, ~0.5us per pipeline pass.",
		Run:   runFig8b,
	})
}

// svcFor builds a fresh service definition for a kind (a cache has host fid's
// IP); bind wires the backing app once the shim client exists.
func svcFor(kind workload.AppKind, fid uint16) (svc *client.Service, bind func(*client.Client)) {
	switch kind {
	case workload.KindCache:
		c := apps.NewCache(testbed.MACFor(200), testbed.IPFor(int(fid)), testbed.IPFor(999))
		return apps.CacheService(c), c.Bind
	case workload.KindHeavyHitter:
		h := apps.NewHeavyHitter(50)
		return apps.HeavyHitterService(h), h.Bind
	default:
		return apps.CheetahSelectService(), func(*client.Client) {}
	}
}

func runFig8a(cfg RunConfig) (*Result, error) {
	epochs := 120
	if cfg.Quick {
		epochs = 40
	}
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, err
	}
	seq := workload.NewSequence(cfg.Seed + 8)
	clients := map[uint16]*client.Client{}

	for epoch := 0; epoch < epochs; epoch++ {
		for _, ev := range seq.PoissonEpoch(epoch, 2, 1) {
			if ev.Arrive {
				svc, bind := svcFor(ev.Kind, ev.FID)
				cl := tb.AddClient(ev.FID, svc)
				bind(cl)
				clients[ev.FID] = cl
				_ = cl.RequestAllocation()
			} else if cl, ok := clients[ev.FID]; ok {
				_ = cl.Release()
				delete(clients, ev.FID)
			}
			// Let each admission fully settle (serialized controller).
			tb.RunFor(5 * time.Second)
		}
	}
	tb.RunFor(10 * time.Second)

	res := &Result{ID: "fig8a", Title: "provisioning time per arrival (s)", Metrics: map[string]float64{}}
	total := stats.NewSeries("total_s")
	table := stats.NewSeries("table_s")
	snap := stats.NewSeries("snapshot_s")
	compute := stats.NewSeries("compute_s")
	var okDur []float64
	i := 0
	for _, r := range tb.Ctrl.Records {
		if r.Kind == switchd.JobRelease || r.Failed {
			continue
		}
		i++
		total.AddStep(i, fseconds(r.End-r.Start))
		table.AddStep(i, fseconds(r.TableTime))
		snap.AddStep(i, fseconds(r.SnapshotWait))
		compute.AddStep(i, fseconds(r.Compute))
		okDur = append(okDur, fseconds(r.End-r.Start))
	}
	res.CSV = stats.MergeCSV("arrival", total, table, snap, compute)
	sum := stats.Summarize(okDur)
	res.Metrics["provision_mean_s"] = sum.Mean
	res.Metrics["provision_p99_s"] = sum.P99
	res.Metrics["admissions"] = float64(sum.N)
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean provisioning %.3fs (p99 %.3fs) across %d admissions", sum.Mean, sum.P99, sum.N),
		"table updates dominate; snapshot waits stay bounded by per-stage memory")
	return res, nil
}

func runFig8b(cfg RunConfig) (*Result, error) {
	lengths := []int{10, 20, 30, 40, 50}
	if cfg.Quick {
		lengths = []int{10, 20, 30}
	}
	res := &Result{ID: "fig8b", Title: "client-to-switch RTT vs. program length (us)", Metrics: map[string]float64{}}
	s := stats.NewSeries("rtt_us")
	base := stats.NewSeries("baseline_us")

	for _, n := range lengths {
		tb, err := testbed.New(testbed.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// Probe service: RTS up front (ingress, as the paper's probes
		// must be), then NOPs padding the program to n instructions.
		prog := &isa.Program{Name: fmt.Sprintf("probe%d", n)}
		prog.Instrs = append(prog.Instrs, isa.Instruction{Op: isa.OpRts})
		for i := 0; i < n-1; i++ {
			prog.Instrs = append(prog.Instrs, isa.Instruction{Op: isa.OpNop})
		}
		svc := &client.Service{Name: "probe", Main: "main", Templates: map[string]*isa.Program{"main": prog}}
		cl := tb.AddClient(1, svc)
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			return nil, err
		}

		var rtts []float64
		var sentAt time.Duration
		cl.Handler = func(c *client.Client, f *packet.Frame) {
			rtts = append(rtts, float64(tb.Eng.Now()-sentAt)/1e3) // us
		}
		for i := 0; i < 10; i++ {
			sentAt = tb.Eng.Now()
			payload := make([]byte, 256-n*2) // ~256-byte packets as in the paper
			_ = cl.SendProgram("main", [4]uint32{}, 0, payload, cl.MAC())
			tb.RunFor(time.Millisecond)
		}
		if len(rtts) == 0 {
			return nil, fmt.Errorf("fig8b: no replies for %d-instruction probe", n)
		}
		mean := stats.Summarize(rtts).Mean
		s.AddStep(n, mean)
		res.Metrics[fmt.Sprintf("rtt_us_%d", n)] = mean
	}

	// Baseline: the switch echoes the packet without any active
	// processing (the paper's green line): a plain frame addressed to the
	// sender's own MAC takes one pipeline pass and comes straight back.
	{
		tb, err := testbed.New(testbed.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cl := tb.AddClient(2, &client.Service{Name: "plain", Main: "main",
			Templates: map[string]*isa.Program{"main": {Name: "noop", Instrs: []isa.Instruction{{Op: isa.OpReturn}}}}})
		var rtts []float64
		var sentAt time.Duration
		cl.Handler = func(c *client.Client, f *packet.Frame) {
			rtts = append(rtts, float64(tb.Eng.Now()-sentAt)/1e3)
		}
		for i := 0; i < 10; i++ {
			sentAt = tb.Eng.Now()
			_ = cl.SendPlain(make([]byte, 256), cl.MAC())
			tb.RunFor(time.Millisecond)
		}
		mean := stats.Summarize(rtts).Mean
		for _, n := range lengths {
			base.AddStep(n, mean)
		}
		res.Metrics["baseline_us"] = mean
	}

	res.CSV = stats.MergeCSV("instructions", s, base)
	// Linearity check: per-instruction slope.
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	slope := (last.V - first.V) / float64(int64(last.T-first.T))
	res.Metrics["slope_us_per_instr"] = slope
	res.Notes = append(res.Notes,
		fmt.Sprintf("RTT grows linearly at ~%.3f us/instruction (~%.2f us per 20-stage pass)", slope, slope*20))
	return res, nil
}
