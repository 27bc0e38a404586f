package main

import (
	"fmt"
	"slices"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/runtime"
	"activermt/internal/secapps"
	"activermt/internal/testbed"
)

// runSynFlood drives the SYN-flood detector end to end: benign sources
// complete handshakes, attackers only SYN, and the control plane scans the
// alarm table between rounds. Prints precision/recall against ground truth.
func runSynFlood(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	say, seed := o.timeline(tb.Eng), o.seed
	sink := secapps.NewRLSink(testbed.MACFor(200))
	tb.AddHost(sink)

	d := secapps.NewSynDetector(16)
	cl := tb.AddClient(31, secapps.SynFloodService(d))
	d.Bind(cl)
	d.SnapshotFn = tb.SnapshotFn()
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		return err
	}
	pl := cl.Placement()
	say("detector operational: threshold %d, counters %d..%d, mutant %v",
		d.Threshold, pl.Accesses[0].Range.Lo, pl.Accesses[0].Range.Hi, pl.Mutant)

	slot := func(src uint32) uint32 { s, _ := d.CounterSlot(src); return s }
	gen := secapps.NewSynFloodGen(seed, 40, 6, slot)
	say("population: %d benign sources, %d attackers (disjoint counter slots)",
		len(gen.Benign), len(gen.Attackers))
	for round := 0; round < 4; round++ {
		gen.Round(d, sink.MAC())
		tb.RunFor(20 * time.Millisecond)
		fresh, err := d.ScanAlarms()
		if err != nil {
			return err
		}
		say("round %d: %d SYNs, %d ACKs sent; scan raised %d new alarms (%d total)",
			round, d.SynsSent, d.AcksSent, len(fresh), len(d.Alarmed))
	}
	precision, recall := d.Score(gen.Truth)
	say("detection: precision %.3f, recall %.3f (%d alarmed of %d attackers)",
		precision, recall, len(d.Alarmed), len(gen.Attackers))
	if precision != 1 || recall < 0.95 {
		return fmt.Errorf("detection quality: precision=%.3f (want 1) recall=%.3f (want >= 0.95)", precision, recall)
	}

	// Late-arriving flood through the chaos library's injector: two fresh
	// sources attack mid-run via the detector's own capsule path.
	late := secapps.NewSynFloodGen(seed+99, 0, 2, slot)
	sc := chaos.SynFloodAttack(func(src uint32) { d.Syn(src, nil, sink.MAC()) },
		late.Attackers, 2*int(d.Threshold), 10*time.Millisecond, time.Millisecond, seed)
	if err := sc.Install(tb.System()); err != nil {
		return err
	}
	tb.RunFor(100 * time.Millisecond)
	if _, err := d.ScanAlarms(); err != nil {
		return err
	}
	for _, src := range late.Attackers {
		if !d.Alarmed[src] {
			return fmt.Errorf("late flood source %#x never alarmed", src)
		}
	}
	say("chaos syn-flood injector: %d late sources flooded and alarmed", len(late.Attackers))
	return nil
}

// runRateLimit drives the per-tenant token-bucket rate limiter: three
// tenants offer under / at / triple the window budget over two refill
// windows, and the sink's delivery counts show the enforcement clamp.
func runRateLimit(o *options) error {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	say, seed := o.timeline(tb.Eng), o.seed
	sink := secapps.NewRLSink(testbed.MACFor(201))
	tb.AddHost(sink)

	const limit = 20
	rl := secapps.NewRateLimiter(limit)
	cl := tb.AddClient(32, secapps.RateLimitService(rl))
	rl.Bind(cl)
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		return err
	}
	say("limiter operational: %d capsules per tenant per window", limit)

	// Tenant identifiers double as labels; offered loads bracket the limit.
	// The seed shifts the identifiers so bucket slots vary run to run.
	base := uint32(seed)*0x9E37 + 0xA0
	offered := []struct {
		tenant uint32
		n      int
	}{{base, limit / 2}, {base + 1, limit}, {base + 2, 3 * limit}}
	for w := 0; w < 2; w++ {
		for _, of := range offered {
			rl.Refill(of.tenant, sink.MAC())
		}
		tb.RunFor(5 * time.Millisecond)
		for _, of := range offered {
			for i := 0; i < of.n; i++ {
				rl.Send(of.tenant, nil, sink.MAC())
			}
		}
		tb.RunFor(20 * time.Millisecond)
		say("window %d closed (%d refills so far)", w, rl.Refills)
	}
	if want := uint64(2 * len(offered)); rl.Refills != want {
		return fmt.Errorf("refills = %d, want %d", rl.Refills, want)
	}
	for _, of := range offered {
		got := sink.Delivered[of.tenant]
		want := uint64(2 * of.n)
		if of.n > limit {
			want = 2 * limit
		}
		o.printf("    tenant %#x: offered %d, delivered %d (expected %d)\n",
			of.tenant, 2*of.n, got, want)
		if got != want {
			return fmt.Errorf("tenant %#x: delivered %d, want %d", of.tenant, got, want)
		}
	}
	return nil
}

// runHHRecirc drives the probabilistic-recirculation heavy hitter under an
// armed recirculation limiter: a Zipf stream flows through the one-pass
// sketch, harvested candidates are promoted to the two-pass exact arm, and
// the driver defers claims the budget cannot cover. Prints spend accounting
// and the top keys against ground truth.
func runHHRecirc(o *options) error {
	// The claim arm is a two-pass program: the allocator places it under the
	// least-constrained policy, the sketch under the default most-constrained.
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return err
	}
	say, seed := o.timeline(tb.Eng), o.seed
	sink := secapps.NewRLSink(testbed.MACFor(202))
	tb.AddHost(sink)

	const claimFID = 34
	hh := secapps.NewRecircHH(seed, 32, 4)
	sketchCl := tb.AddClient(33, secapps.HXSketchService())
	claimCl := tb.AddClient(claimFID, secapps.HXClaimService())
	hh.Bind(sketchCl, claimCl)
	hh.SnapshotFn = tb.SnapshotFn()
	for _, cl := range []*client.Client{sketchCl, claimCl} {
		if err := cl.RequestAllocation(); err != nil {
			return err
		}
	}
	for _, cl := range []*client.Client{sketchCl, claimCl} {
		if err := cl.WaitOperational(5 * time.Second); err != nil {
			return err
		}
	}
	tb.RT.EnableRecircLimiter(runtime.RecircPolicy{Budget: 8, Window: 50 * time.Millisecond}, tb.Eng.Now)
	hh.BudgetFn = func() int { return tb.RT.RecircBudgetRemaining(claimFID) }
	extra := hh.ClaimExtraPasses()
	say("heavy hitter operational: claim arm costs %d extra pass(es), budget 8 per 50ms", extra)
	if extra != 1 {
		return fmt.Errorf("claim arm costs %d extra passes, want 1", extra)
	}

	gen := secapps.NewHXGen(seed+9, 512, 1.4)
	for i := 0; i < 8000; i++ {
		hh.Observe(gen.Next(), nil, sink.MAC())
		tb.RunFor(25 * time.Microsecond)
		if i%250 == 249 {
			if _, err := hh.Harvest(); err != nil {
				return err
			}
		}
		if i%2000 == 1999 {
			say("%d observed: %d claimed keys, %d claims (%d deferred), %d recircs spent",
				hh.Updates, len(hh.ClaimedKeys()), hh.Claims, hh.ClaimsDeferred, hh.RecircSpent)
		}
	}
	tb.RunFor(10 * time.Millisecond)

	if tb.RT.RecircThrottled != 0 {
		return fmt.Errorf("runtime throttled %d recirculating capsules — driver overran the budget", tb.RT.RecircThrottled)
	}
	if led := tb.Guard.Tenant(claimFID); led != nil && led.Count(guard.KindRecircThrottled) != 0 {
		return fmt.Errorf("guard ledger holds %d recirc-throttled entries", led.Count(guard.KindRecircThrottled))
	}
	if hh.ClaimsDeferred == 0 {
		return fmt.Errorf("budget never binding: %d claims, 0 deferred", hh.Claims)
	}
	recircs := tb.RT.Device().Recirculations
	if recircs != hh.Claims || hh.RecircSpent != hh.Claims {
		return fmt.Errorf("spend accounting: device recirculations %d, claims %d, recircs spent %d", recircs, hh.Claims, hh.RecircSpent)
	}
	say("budget respected: 0 throttles, device recirculations = %d = claims", recircs)

	hot, err := hh.HotKeys()
	if err != nil {
		return err
	}
	truth := gen.TopTruth(5)
	say("top exact-counted keys (ground-truth top-5: %x):", truth)
	for i, kc := range hot {
		if i == 5 {
			break
		}
		o.printf("    #%d key %#x count ~%d (true %d)\n", i+1, kc.Key, kc.Count, gen.Truth[kc.Key])
	}
	if len(hot) == 0 || hot[0].Key != truth[0] {
		return fmt.Errorf("hottest exact-counted key does not match ground truth")
	}
	claimed := hh.ClaimedKeys()
	for _, k := range truth[:3] {
		if !slices.Contains(claimed, k) {
			return fmt.Errorf("ground-truth top key %#x never promoted to the claimed set", k)
		}
	}
	return nil
}
