package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/fabric"
	"activermt/internal/netsim"
	"activermt/internal/telemetry"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

// runCache drives one cache tenant over Zipf traffic on the single-switch
// testbed, optionally with a library fault schedule (-chaos), an adversarial
// co-tenant (-adversary) and a live self-scraped telemetry endpoint
// (-telemetry), which serves the snapshot published after every measurement
// window.
func runCache(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	say := o.timeline(tb.Eng)
	var telSrv *telemetry.Server
	var midPackets uint64
	if o.telemetry != "" {
		tb.EnableTelemetry()
		if telSrv, err = telemetry.Serve(tb.Tel, o.telemetry); err != nil {
			return err
		}
		defer telSrv.Close()
		say("telemetry: serving http://%s/metrics", telSrv.Addr())
	}
	srv := tb.AddKVServer()
	cache, cl := tb.AddCache(1, srv)

	say("requesting allocation")
	if err := cl.RequestAndWait(10 * time.Second); err != nil {
		return err
	}
	pl := cl.Placement()
	say("operational: mutant %v, %d buckets", pl.Mutant, cache.Capacity())

	// Seed server + hot set, then drive Zipf traffic.
	z := workload.NewZipf(o.seed, 1.25, 4096)
	keys, hot := srv.SeedObjects(4096)
	cache.SetHotObjects(hot)
	cache.Populate()
	tb.RunFor(50 * time.Millisecond)
	say("populated %d objects", cache.PopAcks)

	var sc *chaos.Scenario
	if o.chaos != "" {
		// Fault tolerance knobs the scenarios lean on: retry with backoff,
		// escape a stuck reallocation window.
		cl.RetryAfter = 50 * time.Millisecond
		cl.ReallocTimeout = 250 * time.Millisecond
		// Aimed at the cache's link and at the stage it lives in, so bit
		// flips land on live application state.
		if sc, err = chaos.Build(o.chaos, []*netsim.Port{cl.Port()}, pl.Accesses[0].Physical, o.seed); err != nil {
			return err
		}
		if err := sc.Install(tb.System()); err != nil {
			return err
		}
		say("chaos scenario %q armed (seed %d)", sc.Name, o.seed)
	}

	// The adversary co-schedules a second tenant that completes a normal
	// admission, then turns on the victim: the attack arc launches between
	// measurement windows 1 and 2, so the printed delta compares clean
	// windows against under-attack windows at the same seed.
	const attackerFID = 66
	var attCl *client.Client
	var advSc *chaos.Scenario
	if o.adversary {
		_, attCl = tb.AddCache(attackerFID, srv)
		if err := attCl.RequestAndWait(10 * time.Second); err != nil {
			return err
		}
		say("attacker tenant fid %d admitted (epoch %d)", attackerFID, attCl.Epoch())
	}

	rates := make([]float64, 0, 5)
	for window := 0; window < 5; window++ {
		if o.adversary && window == 2 {
			_, advMAC, _ := tb.NewHostID()
			adv := chaos.NewAdversary(tb.Eng, advMAC, tb.Switch.MAC())
			tb.AddHost(adv)
			adv.Arm(attackerFID, attCl.Epoch())
			advSc = chaos.AdversarialTenant(adv, 1, o.seed)
			if err := advSc.Install(tb.System()); err != nil {
				return err
			}
			say("adversary armed with fid %d credentials; attack scenario installed", attackerFID)
		}
		cache.ResetStats()
		for i := 0; i < 5000; i++ {
			k := keys[z.Next()]
			cache.Get(k[0], k[1])
			tb.RunFor(50 * time.Microsecond)
		}
		tb.RunFor(5 * time.Millisecond)
		rates = append(rates, cache.HitRate())
		say("window %d: hit rate %.3f (%d hits, %d misses, server saw %d)",
			window, cache.HitRate(), cache.Hits, cache.Misses, srv.Requests)
		if telSrv != nil {
			tb.Tel.Publish() // the endpoint serves what the simulation published
		}
		if telSrv != nil && window == 2 {
			families, packets, err := scrapeMetrics(telSrv.Addr())
			if err != nil {
				return fmt.Errorf("mid-run telemetry scrape: %w", err)
			}
			midPackets = packets
			say("telemetry: mid-run scrape ok (%d families, packets=%d)", families, packets)
		}
	}
	if advSc != nil {
		tb.RunFor(2 * time.Second) // eviction + reallocation settle
		clean := (rates[0] + rates[1]) / 2
		attacked := (rates[2] + rates[3] + rates[4]) / 3
		say("adversary outcome:")
		o.printf("    victim hit rate: clean %.3f, under attack %.3f, delta %+.3f\n",
			clean, attacked, attacked-clean)
		o.printf("    guard: checked=%d dropped=%d tenant-violations=%d port-violations=%d\n",
			tb.Guard.Checked(), tb.Guard.DroppedAtIngress(), tb.Guard.TenantViolations(), tb.Guard.PortViolations())
		o.printf("    controller: quarantines=%d evictions=%d\n",
			tb.Ctrl.GuardQuarantines, tb.Ctrl.GuardEvictions)
		if led := tb.Guard.Tenant(attackerFID); led != nil {
			o.printf("    attacker ledger (fid %d, state %v, %d violations):\n",
				attackerFID, led.State(), led.Total())
			for _, tr := range led.History {
				o.printf("      %s\n", tr)
			}
		}
		o.printf("    attacker client: state=%v evictions=%d\n", attCl.State(), attCl.Evictions)
		o.printf("    victim client: state=%v (ledger clean: %v)\n",
			cl.State(), tb.Guard.Tenant(1) == nil || tb.Guard.Tenant(1).Total() == 0)
		o.printf("    chaos trace:\n")
		for _, e := range advSc.Trace() {
			o.printf("      %s\n", e)
		}
	}
	if sc != nil {
		tb.RunFor(2 * time.Second) // let the fault schedule and recovery settle
		say("chaos trace:")
		for _, e := range sc.Trace() {
			o.printf("    %s\n", e)
		}
		o.printf("    client: state=%v retries=%d reallocations=%d realloc-timeouts=%d\n",
			cl.State(), cl.Retries, cl.Reallocations, cl.ReallocTimeouts)
		o.printf("    controller: crashes=%d restarts=%d readmissions=%d digests-dropped=%d quarantined-blocks=%d\n",
			tb.Ctrl.Crashes, tb.Ctrl.Restarts, tb.Ctrl.Readmissions,
			tb.Ctrl.DigestsDropped, tb.Ctrl.Allocator().QuarantinedBlocks())
	}
	if telSrv != nil {
		tb.Tel.Publish()
		families, packets, err := scrapeMetrics(telSrv.Addr())
		if err != nil {
			return fmt.Errorf("final telemetry scrape: %w", err)
		}
		if packets < midPackets {
			return fmt.Errorf("telemetry: packet counter not monotone: mid=%d final=%d", midPackets, packets)
		}
		say("telemetry: final scrape ok (%d families, packets mid=%d final=%d, monotone)",
			families, midPackets, packets)
	}
	return nil
}

// parseTopology resolves the fabric row's -topology to a leaf and spine
// count.
func parseTopology(topology string) (leaves, spines int, err error) {
	spec, _ := strings.CutPrefix(topology, "leafspine:")
	l, s, ok := strings.Cut(spec, "x")
	if ok {
		leaves, err = strconv.Atoi(l)
		if err == nil {
			spines, err = strconv.Atoi(s)
		}
	}
	if spec == topology || !ok || err != nil || leaves < 1 || spines < 1 {
		return 0, 0, usageError(fmt.Sprintf("-topology %q: want leafspine:<leaves>x<spines> with positive counts", topology))
	}
	return leaves, spines, nil
}

// runFabricCache drives the coherent replicated cache across a leaf-spine
// fabric: one replica per reader leaf plus the home spine, a KV server on
// the last leaf, Zipf GETs issued round-robin from every reader leaf, and a
// write burst mid-run to exercise the invalidation protocol. Exits with a
// per-switch occupancy summary.
func runFabricCache(o *options) error {
	leaves, spines, err := parseTopology(o.topology)
	if err != nil {
		return err
	}
	f, err := fabric.New(fabric.DefaultConfig(leaves, spines))
	if err != nil {
		return err
	}
	fc := fabric.NewController(f)
	say := o.timeline(f.Eng)
	say("leaf-spine fabric up: %d leaves x %d spines (%d switches)", leaves, spines, len(f.Nodes()))

	srv, err := f.AddKVServer(leaves - 1)
	if err != nil {
		return err
	}

	// Readers on every leaf; with a single leaf it doubles as the server's.
	readers := make([]int, leaves)
	for i := range readers {
		readers[i] = i
	}
	cc, err := fabric.NewCoherentCache(fc, 1, readers, srv.MAC(), srv.IP())
	if err != nil {
		return err
	}
	say("coherent cache admitted on %d switches (home %s, epoch %d, %d buckets/replica)",
		len(cc.Set().Members), cc.Home().Name, cc.Set().Epoch, cc.Capacity())

	z := workload.NewZipf(o.seed, 1.25, 2048)
	keys, hot := srv.SeedObjects(2048)
	if err := cc.Warm(0, hot); err != nil {
		return err
	}
	f.RunFor(100 * time.Millisecond)
	say("warmed %d objects from leaf 0", len(hot))

	for window := 0; window < 3; window++ {
		h0, m0 := cc.Hits, cc.Misses
		for i := 0; i < 3000; i++ {
			k := keys[z.Next()]
			if _, err := cc.Get(readers[i%len(readers)], k[0], k[1]); err != nil {
				return err
			}
			f.RunFor(50 * time.Microsecond)
		}
		f.RunFor(5 * time.Millisecond)
		h, m := cc.Hits-h0, cc.Misses-m0
		say("window %d: hit rate %.3f (%d hits, %d misses, server saw %d)",
			window, float64(h)/float64(h+m), h, m, srv.Requests)
		if window == 0 {
			// Overwrite a slice of the hot set from the last leaf: the
			// invalidation capsules evict the other leaves' copies.
			wleaf := readers[len(readers)-1]
			for i := 0; i < 64; i++ {
				if _, err := cc.Put(wleaf, keys[i][0], keys[i][1], uint32(0xBEEF+i)); err != nil {
					return err
				}
				f.RunFor(100 * time.Microsecond)
			}
			f.RunFor(5 * time.Millisecond)
			say("wrote 64 keys from leaf %d: %d invalidations sent, %d delivered, %d acks",
				wleaf, cc.InvalSent, cc.InvalDelivered, cc.WriteAcks)
		}
	}

	say("per-switch occupancy at exit:")
	for _, n := range f.Nodes() {
		o.printf("    %-8s %4d blocks (util %.3f)\n",
			n.Name, n.OccupiedBlocks(), n.Ctrl.Allocator().Utilization())
	}
	o.printf("    replica-mismatches=%d\n", fc.ReplicaMismatch)
	return nil
}

// scrapeRequired are the metric families the ISSUE's acceptance criteria
// demand from a live scrape; the smoke path fails if any is missing.
var scrapeRequired = []string{
	"activermt_stage_occupancy_words",  // per-stage register occupancy
	"activermt_alloc_tenant_blocks",    // per-tenant block counts
	"activermt_guard_violations_total", // guard violation totals
	"activermt_packet_latency_ns",      // packet latency histogram
	"activermt_progcache_hit_ratio",    // program-cache hit ratio
	"activermt_device_packets_total",   // monotone packet counter
}

// scrapeMetrics fetches the Prometheus exposition from a running telemetry
// server, checks it is well-formed (every sample line parses, every required
// family is present), and returns the family count and the device packet
// counter value.
func scrapeMetrics(addr string) (families int, packets uint64, err error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("scrape status %s", resp.Status)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 4<<20))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			families++
			f := strings.Fields(line)
			if len(f) >= 3 {
				seen[f[2]] = true
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			return 0, 0, fmt.Errorf("malformed exposition line %q", line)
		}
		v, perr := strconv.ParseFloat(line[idx+1:], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("malformed sample value in %q", line)
		}
		if line[:idx] == "activermt_device_packets_total" {
			packets = uint64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	for _, want := range scrapeRequired {
		if !seen[want] {
			return 0, 0, fmt.Errorf("scrape missing required family %s", want)
		}
	}
	return families, packets, nil
}
