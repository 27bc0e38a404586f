package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	rt "activermt/internal/runtime"
	"activermt/internal/switchd"
	"activermt/internal/testbed"
)

// The replay ledger prices the layers under the spans: what the taps of a
// traced pass captured — frames entering and leaving switches, deliveries to
// clients and the server, tenant_churn's request sequence and allocation
// responses — is fed back to the public function of each layer, in batches
// of at least ledgerBatch calls between two clock reads, on the very system
// the pass ran on. Calls per op (exact, from the counters) times ns per call
// should add up to the op; ledger.coverage says how far they do.

const (
	ledgerBatch = 1000
	ledgerReps  = 5 // batches per item at least; the best one counts, as for rounds
)

// replayable is what the ledger needs from a finished traced pass.
type replayable interface {
	// device is where captured capsules are decoded, checked and executed.
	device() (*switchd.Switch, *guard.Guard)
	// quiet stops the answer checks: replayed frames arrive out of order.
	quiet()
	// replaySend makes the i-th of the workload's own sends again and
	// delivers nothing.
	replaySend(i int)
	// settle delivers whatever is in flight.
	settle()
}

// cost is one ledger item per call.
type cost struct{ ns, allocs, bytes float64 }

// item is one replayed function: fn runs calls times between two clock
// reads, after runs between batches, outside the clock.
type item struct {
	calls int
	fn    func(i int)
	after func()
	best  cost
}

// newItem makes an item that cycles through the given number of captured
// inputs; with none there is nothing to replay and the item stays at zero.
func newItem(inputs int, fn func(i int), after func()) *item {
	it := &item{fn: fn, after: after}
	if inputs > 0 {
		it.calls = max(inputs, ledgerBatch)
		it.best = cost{math.Inf(1), math.Inf(1), math.Inf(1)}
	}
	return it
}

// batch times one batch, with the collector held off as in a round, and
// keeps the best figures so far.
func (it *item) batch() {
	if it.calls == 0 {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < it.calls; i++ {
		it.fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if it.after != nil {
		it.after()
	}
	n := float64(it.calls)
	it.best.ns = math.Min(it.best.ns, float64(d)/n)
	it.best.allocs = math.Min(it.best.allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	it.best.bytes = math.Min(it.best.bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
}

// runItems takes the items in turn, ledgerReps times at least and then until
// the deadline: a batch lasts a millisecond or two, and the interference it
// has to dodge comes in stretches of seconds, so an item's batches are
// spread over the whole time the ledger has.
func runItems(items []*item, until time.Time) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for rep := 0; rep < ledgerReps || time.Now().Before(until); rep++ {
		for _, it := range items {
			it.batch()
		}
	}
}

type discard struct{}

func (discard) Receive([]byte, *netsim.Port) {}

// packetLedger replays the packet path until the deadline. It returns the
// items and, by item, the ns one op spends there (calls per op x ns per
// call).
func packetLedger(sys replayable, tr *tracer, counts values, until time.Time) (values, map[string]float64) {
	sys.quiet()
	sw, g := sys.device()

	// Switch ingress: decode, guard check, execute.
	ingress := tr.rx[layerSwitch].kept
	decode := newItem(len(ingress), func(i int) {
		_, _ = packet.DecodeFrameCached(ingress[i%len(ingress)].frame, sw.ProgCache())
	}, nil)
	var capsules []*packet.Active
	var ports []int
	for _, d := range ingress {
		f, err := packet.DecodeFrameCached(d.frame, sw.ProgCache())
		if err != nil || f.Active == nil || f.Active.Header.Type() != packet.TypeProgram {
			continue
		}
		// Capsules the guard would refuse now (tenant_churn: the grant has
		// moved on since) never reached the runtime either.
		if g != nil && !g.CheckProgram(f.Active, d.port.Num) {
			continue
		}
		capsules = append(capsules, f.Active)
		ports = append(ports, d.port.Num)
	}
	guarded := len(capsules)
	if g == nil {
		guarded = 0
	}
	check := newItem(guarded, func(i int) {
		_ = g.CheckProgram(capsules[i%len(capsules)], ports[i%len(capsules)])
	}, nil)
	exec := newItem(len(capsules), func(i int) {
		_ = sw.Runtime().ExecuteProgram(capsules[i%len(capsules)])
	}, nil)

	// Switch egress: what clients and the server received, re-encoded.
	var egress []*packet.Frame
	for _, l := range []layer{layerClient, layerServer} {
		for _, d := range tr.rx[l].kept {
			if f, err := packet.DecodeFrame(d.frame); err == nil {
				egress = append(egress, f)
			}
		}
	}
	encode := newItem(len(egress), func(i int) {
		_, _ = packet.EncodeFrame(egress[i%len(egress)])
	}, nil)

	// One netsim event: a send to a discarding endpoint and the step that
	// delivers it.
	eng := netsim.NewEngine()
	cfg := testbed.DefaultConfig()
	port, _ := netsim.Connect(eng, discard{}, 0, discard{}, 0, cfg.LinkDelay, cfg.LinkBW)
	event := newItem(len(ingress), func(i int) {
		port.Send(ingress[i%len(ingress)].frame)
		eng.Step()
	}, nil)

	// The hosts: the workload's own sends, and captured deliveries fed back
	// to the endpoint that received them.
	send := newItem(ledgerBatch, sys.replaySend, sys.settle)
	feed := func(l layer) *item {
		kept := tr.rx[l].kept
		return newItem(len(kept), func(i int) {
			d := kept[i%len(kept)]
			d.to.Receive(d.frame, d.port)
		}, sys.settle)
	}
	recv, server := feed(layerClient), feed(layerServer)

	runItems([]*item{decode, check, exec, encode, event, send, recv, server}, until)

	v := values{
		"packet.decode_ns": decode.best.ns, "packet.decode_allocs": decode.best.allocs, "packet.decode_bytes": decode.best.bytes,
		"guard.check_ns": check.best.ns, "guard.check_allocs": check.best.allocs,
		"runtime.exec_ns": exec.best.ns, "runtime.exec_allocs": exec.best.allocs, "runtime.exec_bytes": exec.best.bytes,
		"packet.encode_ns": encode.best.ns, "packet.encode_allocs": encode.best.allocs, "packet.encode_bytes": encode.best.bytes,
		"netsim.event_ns": event.best.ns, "netsim.event_allocs": event.best.allocs,
		"client.send_call_ns": send.best.ns, "client.send_allocs": send.best.allocs, "client.send_bytes": send.best.bytes,
		"client.recv_call_ns": recv.best.ns, "client.recv_allocs": recv.best.allocs, "client.recv_bytes": recv.best.bytes,
		"kvserver.recv_call_ns": server.best.ns,
	}
	perOp := map[string]float64{
		"client.send":   counts["ledger.sends_per_op"] * send.best.ns,
		"packet.decode": counts["switchd.frames_per_op"] * decode.best.ns,
		"guard.check":   counts["guard.checked_per_op"] * check.best.ns,
		"runtime.exec":  counts["runtime.programs_per_op"] * exec.best.ns,
		"packet.encode": counts["ledger.egress_per_op"] * encode.best.ns,
		"netsim.event":  counts["netsim.events_per_op"] * event.best.ns,
		"client.recv":   counts["ledger.client_rx_per_op"] * recv.best.ns,
		"kvserver.recv": counts["kvserver.requests_per_op"] * server.best.ns,
	}
	return v, perOp
}

// controlLedger replays tenant_churn's control plane on bare layers: the
// recorded arrival/departure sequence on an allocator, its placements on a
// runtime, the captured allocation responses on fresh clients. It returns
// the items and the ns one op spends in each.
func controlLedger(s *churnSystem, tr *tracer) (values, map[string]float64) {
	// The collector runs between replays, as it does between rounds.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := testbed.DefaultConfig()
	cons := map[uint16]*alloc.Constraints{}
	services := map[uint16]*client.Service{churnProbeFID: s.probe.Client.Service()}
	for fid, cl := range s.pool {
		services[fid] = cl.Service()
	}
	for fid, svc := range services {
		// Through the wire format, as the controller sees them.
		c, err := svc.Constraints()
		if err != nil {
			continue
		}
		req, err := c.ToRequest()
		if err != nil {
			continue
		}
		if cons[fid], err = alloc.FromRequest(req); err == nil {
			cons[fid].Name = "fid"
		}
	}
	log := append([]ctlRequest{{fid: churnProbeFID}}, s.log...)

	// tableWork is what one request asks of the runtime.
	type tableWork struct {
		remove  uint16 // FID to remove, 0 if none
		moved   []*alloc.Placement
		install *alloc.Placement
	}
	work := make([]tableWork, len(log))
	allocNs := make([]int64, len(log)) // best over the replays; 0 = not replayed
	var allocAllocs, allocCalls float64
	for rep := 0; rep <= ledgerReps; rep++ {
		al, err := alloc.New(cfg.Alloc)
		if err != nil {
			return values{}, nil
		}
		runtime.GC()
		account := rep == ledgerReps // a last replay counts allocations, unclocked
		var m0, m1 runtime.MemStats
		for i, r := range log {
			if r.departure {
				start := time.Now()
				moved, err := al.Release(r.fid)
				d := int64(time.Since(start))
				if err != nil {
					continue
				}
				work[i] = tableWork{remove: r.fid, moved: moved}
				if !account && (allocNs[i] == 0 || d < allocNs[i]) {
					allocNs[i] = d
				}
				continue
			}
			if account {
				runtime.ReadMemStats(&m0)
			}
			start := time.Now()
			res, err := al.Allocate(r.fid, cons[r.fid])
			d := int64(time.Since(start))
			if err != nil || res.Failed {
				continue
			}
			if account {
				runtime.ReadMemStats(&m1)
				allocAllocs += float64(m1.Mallocs - m0.Mallocs)
				allocCalls++
				continue
			}
			work[i] = tableWork{moved: res.Reallocated, install: res.New}
			if allocNs[i] == 0 || d < allocNs[i] {
				allocNs[i] = d
			}
		}
	}
	var arrive, depart []int64
	var allocTimed, releaseTimed float64
	for i, r := range log {
		if !r.timed {
			continue
		}
		if r.departure {
			depart = append(depart, allocNs[i])
			releaseTimed += float64(allocNs[i])
		} else {
			arrive = append(arrive, allocNs[i])
			allocTimed += float64(allocNs[i])
		}
	}
	v := values{
		"alloc.allocate_ns_p50": float64(quantile(arrive, 0.50)),
		"alloc.allocate_ns_p99": float64(quantile(arrive, 0.99)),
		"alloc.release_ns_p50":  float64(quantile(depart, 0.50)),
		"alloc.allocate_allocs": ratio(allocAllocs, allocCalls),
	}

	// The placements on a bare runtime, call by call as the controller
	// makes them: deactivate the moved, install, reactivate.
	grantFor := func(pl *alloc.Placement) rt.Grant {
		g := rt.Grant{FID: pl.FID}
		for _, ap := range pl.Accesses {
			g.Accesses = append(g.Accesses, rt.AccessGrant{Logical: ap.Logical, Lo: ap.Range.Lo, Hi: ap.Range.Hi})
		}
		return g
	}
	type class struct{ ns, calls, allocs, bytes float64 }
	best := map[string]class{}
	for rep := 0; rep <= ledgerReps; rep++ {
		r, err := rt.New(cfg.RMT)
		if err != nil {
			return v, nil
		}
		runtime.GC()
		account := rep == ledgerReps
		cur := map[string]class{}
		var m0, m1 runtime.MemStats
		clocked := func(name string, timed bool, fn func()) {
			if account && name == "install" {
				runtime.ReadMemStats(&m0)
			}
			start := time.Now()
			fn()
			d := float64(time.Since(start))
			if !timed {
				return
			}
			c := cur[name]
			c.ns += d
			c.calls++
			if account && name == "install" {
				runtime.ReadMemStats(&m1)
				c.allocs += float64(m1.Mallocs - m0.Mallocs)
				c.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			}
			cur[name] = c
		}
		for i, w := range work {
			timed := log[i].timed
			if w.remove != 0 {
				clocked("remove", timed, func() { r.RemoveGrant(w.remove) })
			}
			for _, pl := range w.moved {
				clocked("toggle", timed, func() { r.Deactivate(pl.FID) })
			}
			for _, pl := range w.moved {
				clocked("install", timed, func() { _, _ = r.InstallGrant(grantFor(pl)) })
			}
			if w.install != nil {
				clocked("install", timed, func() { _, _ = r.InstallGrant(grantFor(w.install)) })
			}
			for _, pl := range w.moved {
				clocked("toggle", timed, func() { r.Reactivate(pl.FID) })
			}
		}
		for name, c := range cur {
			b, ok := best[name]
			switch {
			case account:
				b.allocs, b.bytes = c.allocs, c.bytes
			case !ok || c.ns < b.ns:
				b.ns, b.calls = c.ns, c.calls
			}
			best[name] = b
		}
	}
	v["runtime.install_ns"] = ratio(best["install"].ns, best["install"].calls)
	v["runtime.install_allocs"] = ratio(best["install"].allocs, best["install"].calls)
	v["runtime.install_bytes"] = ratio(best["install"].bytes, best["install"].calls)
	v["runtime.remove_ns"] = ratio(best["remove"].ns, best["remove"].calls)
	// One toggle is a Deactivate and its Reactivate.
	v["runtime.toggle_ns"] = ratio(best["toggle"].ns, best["toggle"].calls/2)

	// The captured allocation responses and reallocation notices, in
	// order, on fresh clients: placement rebuild plus mutant synthesis.
	type grant struct {
		fid   uint16
		frame []byte
	}
	var grants []grant
	for _, frame := range tr.control {
		f, err := packet.DecodeFrame(frame)
		if err == nil && f.Active != nil && f.Active.Header.Type() == packet.TypeAllocResp {
			grants = append(grants, grant{f.Active.Header.FID, frame})
		}
	}
	grantNs := math.Inf(1)
	for rep := 0; rep < ledgerReps; rep++ {
		runtime.GC()
		eng := netsim.NewEngine()
		fresh := map[uint16]*client.Client{}
		for fid := range s.pool {
			svc, bind := poolService(fid)
			cl := client.New(eng, fid, testbed.MACFor(int(fid)), testbed.MACFor(0), svc)
			bind(cl)
			cl.Pipeline = client.Pipeline{NumStages: cfg.RMT.NumStages, NumIngress: cfg.RMT.NumIngress, MaxPasses: cfg.Alloc.MaxPasses}
			fresh[fid] = cl
		}
		var total float64
		for _, g := range grants {
			cl := fresh[g.fid]
			if cl == nil {
				continue
			}
			start := time.Now()
			cl.Receive(g.frame, nil)
			total += float64(time.Since(start))
		}
		grantNs = math.Min(grantNs, total)
	}
	if len(grants) == 0 {
		grantNs = 0
	}
	v["client.grant_ns"] = ratio(grantNs, float64(len(grants)))

	ops := float64(s.t.ops)
	perOp := map[string]float64{
		"alloc.allocate":  allocTimed / ops,
		"alloc.release":   releaseTimed / ops,
		"runtime.install": best["install"].ns / ops,
		"runtime.remove":  best["remove"].ns / ops,
		"runtime.toggle":  best["toggle"].ns / ops,
		"client.grant":    grantNs / ops,
	}
	return v, perOp
}
