package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/experiments"
	"activermt/internal/packet"
	"activermt/internal/soak"
	"activermt/internal/testbed"
)

// runSoak drives the internal/soak harness: a leaf-spine fabric under
// continuous chaos, tenant churn, and a coherent-cache workload, with
// invariants checked every virtual epoch. Fails on any violation.
func runSoak(o *options) error {
	if o.soak < 0 {
		return usageError(fmt.Sprintf("-soak %v: want a positive duration", o.soak))
	}
	cfg := soak.Config{Duration: o.soak, Seed: o.seed, Secapps: o.soakSecapps,
		Progress: func(format string, args ...any) { o.printf(format+"\n", args...) }}
	if o.soakCSV != "" {
		f, err := os.Create(o.soakCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		cfg.CSV = w
	}
	res, err := soak.Run(cfg)
	if err != nil {
		return err
	}
	o.printf("soak: %d epochs over %v virtual: %d reads (%d lost, %.0f%% hit), %d writes acked, %d tenants placed, %d chaos scenarios, %d reconciles, p99=%v\n",
		res.Epochs, res.Elapsed, res.ReadsDone, res.Lost, 100*res.HitRate,
		res.Acked, res.TenantsPlaced, res.ChaosInstalled, res.Reconciles, res.P99)
	k := res.SpineKill
	o.printf("soak: spine-kill arc: fired=%v degraded=%v rerouted=%v reconciled=%v recovered=%v\n",
		k.Fired, k.Degraded, k.Rerouted, k.Reconciled, k.Recovered)
	o.printf("soak: defrag: %d passes, %d migrations, max frag %.3f\n",
		res.DefragPasses, res.DefragMigrations, res.MaxFragmentation)
	if o.soakSecapps {
		o.printf("soak: secapps: syn %d sent / %d alarms, rl %d delivered of %d offered, hh %d observed / %d claims (%d deferred)\n",
			res.SynSent, res.SynAlarms, res.RLDelivered, res.RLOffered,
			res.HHObserved, res.HHClaims, res.HHDeferred)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "soak: invariant violation: %v\n", v)
			for _, line := range v.Trace {
				fmt.Fprintf(os.Stderr, "  trace: %s\n", line)
			}
		}
		return fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	return nil
}

// runPaper regenerates the paper's evaluation (Section 6). With no ids it
// lists the registry; each named experiment ("all" is every one) prints its
// headline metrics and notes and writes -out/<id>.csv. An id that fails or
// does not exist is reported after the others have run.
func runPaper(o *options) error {
	ids := o.args
	if len(ids) == 0 {
		for _, s := range experiments.Registry {
			o.printf("%-8s %s\n         paper: %s\n", s.ID, s.Title, s.Paper)
		}
		return nil
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, s := range experiments.Registry {
			ids = append(ids, s.ID)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var failed []error
	for _, id := range ids {
		spec, ok := experiments.Lookup(id)
		if !ok {
			failed = append(failed, fmt.Errorf("unknown experiment %q", id))
			continue
		}
		o.printf("== %s: %s\n   paper: %s\n", spec.ID, spec.Title, spec.Paper)
		path := filepath.Join(o.outDir, spec.ID+".csv")
		res, err := spec.Run(experiments.RunConfig{Quick: o.quick, Seed: o.seed})
		if err == nil {
			err = os.WriteFile(path, []byte(res.CSV), 0o644)
		}
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", id, err))
			continue
		}
		res.Print(o.out, "   ", 40)
		o.printf("   data: %s\n\n", path)
	}
	return errors.Join(failed...)
}

// runDefragDemo makes online defragmentation visible: a churn pattern leaves
// the switch fragmented, and nothing reacts until a pass is asked for. Then
// a request every 100 ms has the controller live-migrate the survivors the
// allocator can move down into the holes while the tenants keep serving.
// State survival is checked by writing a pattern into every surviving tenant
// before the migration and reading it back after.
func runDefragDemo(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	say := o.timeline(tb.Eng)
	al := tb.Ctrl.Allocator()

	// Four waves of inelastic memsync tenants, then waves 1 and 3 released:
	// the survivors sit above the released waves' holes.
	const waves, perWave, demand, words = 4, 6, 48, 8
	var all []*apps.MemSync
	fid := uint16(100)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			ms, cl := tb.AddMemSync(fid, demand)
			if err := cl.RequestAndWait(10 * time.Second); err != nil {
				return fmt.Errorf("fid %d: %w", fid, err)
			}
			all = append(all, ms)
			fid++
		}
	}
	say("admitted %d memsync tenants (%d blocks each), utilization %.3f",
		len(all), demand, al.Utilization())

	// Survivors get a recognizable pattern in switch SRAM before churn.
	var survivors []*apps.MemSync
	for w := 1; w < waves; w += 2 {
		for _, ms := range all[w*perWave : (w+1)*perWave] {
			for j := 0; j < words; j++ {
				ms.Write(uint32(j), uint32(ms.Client.FID())<<16|uint32(j), nil)
				tb.RunFor(100 * time.Microsecond)
			}
			survivors = append(survivors, ms)
		}
	}
	tb.RunFor(100 * time.Millisecond)
	for w := 0; w < waves; w += 2 {
		for _, ms := range all[w*perWave : (w+1)*perWave] {
			if err := ms.Client.Release(); err != nil {
				return err
			}
		}
	}
	tb.RunFor(200 * time.Millisecond)
	fragBefore := al.Fragmentation()
	say("released %d tenants: fragmentation %.4f, utilization %.3f",
		waves/2*perWave, fragBefore, al.Utilization())

	// Nobody has asked for a pass, so the holes stay where churn left them.
	tb.RunFor(time.Second)
	say("no pass requested: fragmentation %.4f, %d defrag passes, %d movable tenants",
		al.Fragmentation(), tb.Ctrl.DefragPasses, len(al.CompactionCandidates(nil)))
	if al.Fragmentation() != fragBefore || tb.Ctrl.DefragPasses != 0 {
		return fmt.Errorf("fragmentation moved %.4f -> %.4f with no pass requested", fragBefore, al.Fragmentation())
	}

	// Ask for a pass every 100 ms until the allocator has nobody left to
	// move, or 5 s pass; then let the last pass finish its restore.
	requests := 0
	for end := tb.Eng.Now() + 5*time.Second; len(al.CompactionCandidates(nil)) > 0 && tb.Eng.Now() < end; requests++ {
		tb.Ctrl.Defragment()
		tb.RunFor(100 * time.Millisecond)
	}
	tb.RunFor(time.Second)
	say("after %d pass requests: fragmentation %.4f -> %.4f, %d defrag passes, %d tenants migrated, %d blocks moved, %d words restored",
		requests, fragBefore, al.Fragmentation(), tb.Ctrl.DefragPasses, tb.Ctrl.DefragMigrations,
		tb.Ctrl.DefragBlocksMoved, tb.Ctrl.DefragWordsRestored)

	// Books and state must survive the migrations.
	bad := 0
	for _, ms := range survivors {
		for j := 0; j < words; j++ {
			want := uint32(ms.Client.FID())<<16 | uint32(j)
			got, err := readBack(tb, ms, j)
			if err != nil || got != want {
				bad++
			}
		}
	}
	if err := al.AuditBooks(); err != nil {
		return fmt.Errorf("allocator books: %w", err)
	}
	say("audit: books clean, %d/%d survivor words verified (%d bad)",
		len(survivors)*words-bad, len(survivors)*words, bad)
	if bad > 0 {
		return fmt.Errorf("%d survivor words lost across migration", bad)
	}
	if left := al.CompactionCandidates(nil); len(left) > 0 {
		return fmt.Errorf("%d movable tenants left unmigrated after %d pass requests", len(left), requests)
	}
	return nil
}

// readBack issues a data-plane read through the tenant's capsule program
// and spins the engine until the reply lands.
func readBack(tb *testbed.Testbed, ms *apps.MemSync, index int) (uint32, error) {
	var got uint32
	done := false
	ms.Read(uint32(index), func(v uint32) {
		got, done = v, true
	})
	limit := tb.Eng.Now() + time.Second
	for !done && tb.Eng.Now() < limit {
		tb.RunFor(time.Millisecond)
	}
	if !done {
		return 0, fmt.Errorf("read of index %d timed out", index)
	}
	return got, nil
}

// runLB drives Cheetah load balancing (Appendix B.2): a stateful
// server-selection program on SYNs and a stateless per-packet routing
// program that recovers the chosen server from hash(5-tuple) XOR cookie.
func runLB(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	say := o.timeline(tb.Eng)
	const nsrv = 4
	servers := make([]*apps.EchoServer, nsrv)
	ports := make([]uint32, nsrv)
	for i := range servers {
		servers[i] = apps.NewEchoServer(tb.Eng, testbed.MACFor(201+i))
		ports[i] = uint32(tb.AddHost(servers[i]))
	}

	lb := apps.NewCheetah(uint32(o.seed)*0x9E37+1, nsrv)
	lb.Select = tb.AddClient(21, apps.CheetahSelectService())
	lb.Route = tb.AddClient(22, apps.CheetahRouteService())

	cookieCh := map[uint64]uint32{}
	lb.Select.Handler = func(c *client.Client, f *packet.Frame) {
		if f.Active == nil || f.Active.Args[1] == 0 {
			return
		}
		if tup, ok := packet.ParseFiveTuple(f.Inner); ok {
			cookieCh[uint64(tup.SrcPort)] = f.Active.Args[1]
		}
	}
	for _, cl := range []*client.Client{lb.Select, lb.Route} {
		if err := cl.RequestAndWait(10 * time.Second); err != nil {
			return err
		}
	}
	lb.SetupPool(ports)
	tb.RunFor(20 * time.Millisecond)
	say("pool installed: ports %v", ports)

	// 32 flows: SYN then 8 data packets each.
	for flow := 0; flow < 32; flow++ {
		tup := packet.FiveTuple{
			Src: testbed.IPFor(50), Dst: testbed.IPFor(60),
			SrcPort: uint16(1000 + flow), DstPort: 80, Protocol: packet.ProtoTCP,
		}
		payload := apps.BuildUDP(tup.Src, tup.Dst, tup.SrcPort, tup.DstPort, []byte("syn"))
		lb.ActivateSYN(payload, testbed.MACFor(250))
		tb.RunFor(2 * time.Millisecond)
		if ck, ok := cookieCh[uint64(tup.SrcPort)]; ok {
			lb.LearnCookie(tup, ck)
		}
		for i := 0; i < 8; i++ {
			lb.ActivateData(tup, payload, testbed.MACFor(250))
			tb.RunFor(500 * time.Microsecond)
		}
	}
	tb.RunFor(10 * time.Millisecond)
	say("flows routed: %d SYNs, %d data packets", lb.SYNsSent, lb.Routed)
	for i, s := range servers {
		o.printf("  server %d (port %d): %d packets\n", i, ports[i], s.Echoed)
	}
	return nil
}
