package main

import (
	"sort"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

// The guided tour: the two narratives a newcomer reads first. Each runs at
// fixed seeds and accepts no flags.

// runQuickstart stands up a runtime-programmable switch and admits a tiny
// stateful service the one way every tenant is admitted (Section 4.3): the
// client requests memory, the controller grants a mutant placement, the
// client links its program against it and sends active packets through the
// switch.
func runQuickstart(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}

	// A tiny stateful service: one counter per packet "color", stored in
	// switch memory, incremented by every packet that carries the
	// program. MAR arrives preloaded with data[2] (the counter address).
	prog := isa.MustAssemble("counter", `
.arg ADDR 2
MAR_LOAD $ADDR       // pick the counter
MEM_INCREMENT        // bump it; new value lands in MBR
MBR_STORE 0          // report the count back in data[0]
RTS                  // return the packet to its sender
RETURN
`)
	o.printf("program:\n%s", isa.Disassemble(prog))

	// Admission: the client extracts the constraints (one memory access at
	// instruction 1) and asks for one block; the controller finds a feasible
	// mutant and carves out a region; the client links the program against
	// the granted mutant.
	svc := &client.Service{Name: "counter", Templates: map[string]*isa.Program{"main": prog},
		Specs: []compiler.AccessSpec{{Demand: 1}}}
	cl := tb.AddClient(1, svc)
	var (
		sentAt, latency   time.Duration
		replied, toSender bool
		count             uint32
	)
	cl.Handler = func(_ *client.Client, f *packet.Frame) {
		if f.Active != nil {
			replied, toSender, count = true, f.Eth.Src == tb.Switch.MAC(), f.Active.Args[0]
			latency = tb.Eng.Now() - sentAt
		}
	}
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		return err
	}
	pl := cl.Placement()
	grant := pl.Accesses[0]
	o.printf("\ndeployed as FID %d: mutant %v, region [%d,%d) in logical stage %d\n",
		cl.FID(), pl.Mutant, grant.Range.Lo, grant.Range.Hi, grant.Logical)

	// send carries the program to the switch with data[2] = addr and runs the
	// network long enough for the reply, if any, to come back.
	send := func(addr uint32) error {
		replied, sentAt = false, tb.Eng.Now()
		err := cl.SendProgram("main", [4]uint32{0, 0, addr, 0}, 0, nil, cl.MAC())
		tb.RunFor(time.Millisecond)
		return err
	}

	// Execute: bump counter #3 five times. The client performs address
	// translation (region base + index), exactly as the paper's shim does.
	addr := grant.Range.Lo + 3
	for i := 0; i < 5; i++ {
		if err := send(addr); err != nil {
			return err
		}
		o.printf("packet %d: count=%d returned-to-sender=%v latency=%v\n", i+1, count, toSender, latency)
	}

	// Memory protection: an address outside the granted region faults and
	// the packet is dropped — another tenant cannot touch this counter.
	if err := send(grant.Range.Hi + 10); err != nil {
		return err
	}
	o.printf("out-of-region access dropped=%v (switch drops=%d)\n", !replied, tb.Switch.FramesDropped)

	// A second tenant gets its own disjoint region automatically.
	cl2 := tb.AddClient(2, svc)
	if err := cl2.RequestAndWait(5 * time.Second); err != nil {
		return err
	}
	g2 := cl2.Placement().Accesses[0]
	o.printf("second tenant: region [%d,%d) stage %d (utilization now %.4f)\n",
		g2.Range.Lo, g2.Range.Hi, g2.Logical, tb.Ctrl.Allocator().Utilization())
	return nil
}

// runHeavyHitter deploys the frequent-item (heavy-hitter) monitor of
// Appendix B.1 on a traffic mix and identifies the flows that exceed a
// count threshold — a count-min sketch updated at line rate in switch
// memory, with hot-key fingerprints recorded in a hash-indexed table.
func runHeavyHitter(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	sink := tb.AddKVServer()

	const threshold = 25
	hh := apps.NewHeavyHitter(threshold)
	cl := tb.AddClient(1, apps.HeavyHitterService(hh))
	hh.Bind(cl)
	hh.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		return err
	}
	pl := cl.Placement()
	o.printf("monitor deployed: sketch rows at stages %d/%d (%d counters each), key table at stage %d\n",
		pl.Accesses[0].Logical, pl.Accesses[1].Logical,
		pl.Accesses[0].Range.Hi-pl.Accesses[0].Range.Lo, pl.Accesses[2].Logical)

	// Traffic: 512 flows; flow popularity is Zipfian, so a handful of
	// flows dominate. Ground truth counted client-side for comparison.
	z := workload.NewZipf(3, 1.3, 512)
	truth := map[uint32]int{}
	for i := 0; i < 20000; i++ {
		flow := uint32(z.Next())
		k0 := flow*2654435761 + 1
		truth[k0]++
		hh.Observe(k0, flow, nil, sink.MAC())
		tb.RunFor(20 * time.Microsecond)
	}
	tb.RunFor(10 * time.Millisecond)

	hot, err := hh.HotKeys()
	if err != nil {
		return err
	}
	o.printf("switch flagged %d flows above threshold %d\n", len(hot), threshold)

	// Precision/recall against ground truth.
	trueHot := 0
	for _, c := range truth {
		if c > threshold {
			trueHot++
		}
	}
	hits := 0
	for _, kv := range hot {
		if truth[kv.Key0] > threshold {
			hits++
		}
	}
	o.printf("ground truth: %d hot flows; detected %d of them, missed %d, false-flagged %d\n",
		trueHot, hits, trueHot-hits, len(hot)-hits)

	// Show the top detections with their true counts.
	sort.Slice(hot, func(i, j int) bool { return truth[hot[i].Key0] > truth[hot[j].Key0] })
	for i, kv := range hot {
		if i >= 8 {
			break
		}
		o.printf("  flow %#x: %d requests\n", kv.Key0, truth[kv.Key0])
	}
	return nil
}
