package soak

// The security-app workload families (Config.Secapps): the soak runs the
// internal/secapps exemplars continuously against the churning fabric and
// holds them to their own per-epoch invariants, together row R13a of
// docs/invariants.md; a violation's detail opens with its clause's name.
//
//   - SYN-flood detection, replicated on both ingress leaves through the
//     fabric's replica placement path. Benign sources complete handshakes,
//     attackers never ACK; every source enters through a fixed leaf. The
//     invariant: no attacker whose sent-SYN backlog has crossed twice the
//     alarm threshold stays un-alarmed for more than the grace window —
//     chaos may drop SYNs (the switch then under-counts), which the 2x
//     margin plus grace absorbs, but a persistent miss is a detection
//     failure ("synflood-miss").
//   - Per-tenant rate limiting. Three tenants (under / at / 3x the limit)
//     offer load every epoch; the driver opens one window per epoch. The
//     invariant is the enforcement upper bound: cumulative deliveries per
//     tenant never exceed windows x limit — loss under-delivers, nothing
//     may over-deliver ("ratelimit-enforce").
//   - The recirculating heavy hitter on the server leaf, with the runtime's
//     recirculation limiter armed at recircBudget extra passes per epoch.
//     The driver polls the runtime's remaining-budget accessor and defers
//     claims that would not fit, so the invariant is cooperative spending:
//     zero runtime throttles and zero recirc-throttled guard ledger entries
//     ("recirc-budget").

import (
	"fmt"
	"math/rand"
	"time"

	"activermt/internal/client"
	"activermt/internal/fabric"
	"activermt/internal/guard"
	"activermt/internal/runtime"
	"activermt/internal/secapps"
)

// Security-app FIDs live above the tenant FID ceiling (tenantFIDMax), so
// neither tenant churn nor the repair-FID walk can collide with them.
const (
	synFID      = 60001
	rlFID       = 60002
	hxSketchFID = 60003
	hxClaimFID  = 60004

	// synMissGrace is how many consecutive epochs an attacker may sit above
	// twice the threshold un-alarmed before it counts as a detection miss.
	synMissGrace = 2
)

type synEvent struct {
	src    uint32
	ack    bool
	member int // replica index = ingress leaf
}

// secState is the harness's security-app corner: drivers, generators, and
// the invariant bookkeeping.
type secState struct {
	det     *secapps.SynDetector
	detSet  *fabric.ReplicaSet
	rl      *secapps.RateLimiter
	hh      *secapps.RecircHH
	hxGen   *secapps.HXGen
	sink    *secapps.RLSink
	sinkMAC [6]byte

	hhNode *fabric.Node // node policed by the recirculation limiter

	synSchedule []synEvent
	synNext     int
	attackSyns  map[uint32]uint64 // client-side ground truth per attacker
	attackers   []uint32
	missGrace   map[uint32]int

	rlTenants []uint32
	rlOffer   []int // per-epoch offered load, parallel to rlTenants
	rlSched   []int // tenant indices, one per pump tick
	rlNext    int
	rlWindows uint64 // windows opened (initial zeroed bucket counts as one)

	rng *rand.Rand // secapps-only stream; the baseline soak PRNG is untouched
}

const (
	synThreshold = 16 // SYN-flood alarm backlog
	rlLimit      = 16 // rate-limit window budget per tenant
	recircBudget = 4  // heavy-hitter recirculations per epoch window
)

func (h *harness) initSecapps() error {
	cfg := h.cfg
	s := &secState{
		attackSyns: make(map[uint32]uint64),
		missGrace:  make(map[uint32]int),
		rlWindows:  1,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x5eca995)),
	}
	f := h.f

	// Delivery sink on the server leaf: enforcement ground truth for the
	// rate limiter, plain destination for everything else.
	sinkMAC, _ := f.NewHostID()
	s.sink = secapps.NewRLSink(sinkMAC)
	if err := f.AddHost(numLeaves-1, s.sink); err != nil {
		return err
	}
	s.sinkMAC = sinkMAC

	// SYN-flood detector, replicated on the two ingress leaves via the
	// fabric placement path (plus the home spine, per the replica-set
	// contract). All members share one placement, so the bound client
	// mirrors counter slots for every copy.
	s.det = secapps.NewSynDetector(synThreshold)
	s.det.WireTelemetry(h.reg)
	set, err := h.fc.PlaceReplicas(synFID, []int{0, 1}, h.srv.MAC(), func() *client.Service {
		return secapps.SynFloodService(s.det)
	})
	if err != nil {
		return fmt.Errorf("soak: syn-flood replicas: %w", err)
	}
	s.detSet = set
	s.det.Bind(set.Members[0].Client)

	// Rate limiter on leaf 0.
	s.rl = secapps.NewRateLimiter(rlLimit)
	s.rl.WireTelemetry(h.reg)
	rlCl, err := f.AddClient(0, rlFID, f.Leaves[0], secapps.RateLimitService(s.rl))
	if err != nil {
		return err
	}
	s.rl.Bind(rlCl)

	// Heavy hitter on the server leaf: no cache replica lives there, so the
	// recirculation limiter polices only the claim arm's traffic.
	s.hhNode = f.Leaves[numLeaves-1]
	s.hh = secapps.NewRecircHH(cfg.Seed^0x48581, 12, 1)
	s.hh.WireTelemetry(h.reg)
	sketchCl, err := f.AddClient(numLeaves-1, hxSketchFID, s.hhNode, secapps.HXSketchService())
	if err != nil {
		return err
	}
	claimCl, err := f.AddClient(numLeaves-1, hxClaimFID, s.hhNode, secapps.HXClaimService())
	if err != nil {
		return err
	}
	s.hh.Bind(sketchCl, claimCl)
	s.hh.SnapshotFn = s.hhNode.SnapshotFn()
	s.hxGen = secapps.NewHXGen(cfg.Seed^0x2e9c, 64, 1.2)

	// Allocations are serialized: concurrent handshakes against one
	// controller interleave their reallocation windows.
	for _, cl := range []*client.Client{rlCl, sketchCl, claimCl} {
		if err := cl.RequestAndWait(5 * time.Second); err != nil {
			return err
		}
	}

	// Arm the recirculation limiter on the heavy hitter's node and point
	// the driver's backoff at the runtime's budget accessor.
	s.hhNode.RT.EnableRecircLimiter(runtime.RecircPolicy{
		Budget: recircBudget,
		Window: epoch,
	}, f.Eng.Now)
	s.hh.BudgetFn = func() int { return s.hhNode.RT.RecircBudgetRemaining(hxClaimFID) }

	// Populations. Sources are rejection-sampled onto distinct counter
	// slots so a benign ACK can never silently reset an attacker's backlog
	// (the sketch's documented false-negative mode would otherwise turn
	// into a spurious invariant violation).
	slot := func(src uint32) uint32 { sl, _ := s.det.CounterSlot(src); return sl }
	gen := secapps.NewSynFloodGen(cfg.Seed^0x515ec, 12, 4, slot)
	s.attackers = gen.Attackers
	for i, src := range gen.Benign {
		s.synSchedule = append(s.synSchedule,
			synEvent{src: src, member: i % 2},
			synEvent{src: src, ack: true, member: i % 2})
	}
	for i, src := range gen.Attackers {
		for k := 0; k < 3; k++ {
			s.synSchedule = append(s.synSchedule, synEvent{src: src, member: i % 2})
		}
	}
	s.rng.Shuffle(len(s.synSchedule), func(i, j int) {
		s.synSchedule[i], s.synSchedule[j] = s.synSchedule[j], s.synSchedule[i]
	})
	// The shuffle may order an ACK before its own SYN within one cycle;
	// that only leaves one extra half-open count behind, absorbed by the
	// threshold's 2x margin like any chaos drop.

	s.rlTenants = []uint32{0xA1, 0xB2, 0xC3}
	s.rlOffer = []int{rlLimit / 2, rlLimit, 3 * rlLimit}
	for i, n := range s.rlOffer {
		for k := 0; k < n; k++ {
			s.rlSched = append(s.rlSched, i)
		}
	}
	s.rng.Shuffle(len(s.rlSched), func(i, j int) {
		s.rlSched[i], s.rlSched[j] = s.rlSched[j], s.rlSched[i]
	})

	h.sec = s
	return nil
}

// startSecappsPumps schedules the three families' self-rescheduling traffic
// generators, each spreading one epoch's worth of events evenly across the
// epoch (sends only emit frames and timers, so pumps are engine-callback
// safe; scans, refills, and invariants stay in the driver loop).
func (h *harness) startSecappsPumps() {
	s := h.sec
	if s == nil {
		return
	}
	eng := h.f.Eng
	end := eng.Now() + h.cfg.Duration
	pump := func(gap time.Duration, fire func()) {
		var tick func()
		tick = func() {
			if eng.Now() >= end || h.failed != nil {
				return
			}
			fire()
			eng.Schedule(gap, tick)
		}
		eng.Schedule(gap, tick)
	}

	pump(epoch/time.Duration(len(s.synSchedule)), func() {
		ev := s.synSchedule[s.synNext%len(s.synSchedule)]
		s.synNext++
		cl := s.detSet.Members[ev.member].Client
		if ev.ack {
			s.det.AckVia(cl, ev.src, nil, s.sinkMAC)
		} else {
			s.det.SynVia(cl, ev.src, nil, s.sinkMAC)
			if s.isAttacker(ev.src) {
				s.attackSyns[ev.src]++
			}
		}
	})

	pump(epoch/time.Duration(len(s.rlSched)), func() {
		ti := s.rlSched[s.rlNext%len(s.rlSched)]
		s.rlNext++
		s.rl.Send(s.rlTenants[ti], nil, s.sinkMAC)
	})

	const observesPerEpoch = 30
	pump(epoch/observesPerEpoch, func() {
		s.hh.Observe(s.hxGen.Next(), nil, s.sinkMAC)
	})
}

func (s *secState) isAttacker(src uint32) bool {
	for _, a := range s.attackers {
		if a == src {
			return true
		}
	}
	return false
}

// secappsEpoch is the families' per-epoch control-plane work: alarm scans on
// every detector replica, candidate harvest, window refills, and result
// counter sync. Runs in the driver loop, never inside engine callbacks.
func (h *harness) secappsEpoch() {
	s := h.sec
	if s == nil {
		return
	}
	for _, m := range s.detSet.Members {
		if fresh, err := s.det.ScanAlarmsVia(m.Node.SnapshotFn()); err == nil {
			for _, src := range fresh {
				h.ring.note(h.f.Eng.Now(), "syn-flood alarm: source %#x on %s", src, m.Node.Name)
			}
		}
	}
	if _, err := s.hh.Harvest(); err == nil && h.res.Epochs%4 == 0 {
		// Periodic exact-counter readback keeps the control-plane path hot;
		// the result itself is only reported, never asserted mid-soak.
		_, _ = s.hh.HotKeys()
	}
	for _, t := range s.rlTenants {
		s.rl.Refill(t, s.sinkMAC)
	}
	s.rlWindows++

	h.res.SynSent = s.det.SynsSent
	h.res.SynAlarms = s.det.AlarmsRaised
	h.res.HHObserved = s.hh.Updates
	h.res.HHClaims = s.hh.Claims
	h.res.HHDeferred = s.hh.ClaimsDeferred
	var offered, delivered uint64
	for _, t := range s.rlTenants {
		offered += s.rl.Offered[t]
		delivered += s.sink.Delivered[t]
	}
	h.res.RLOffered = offered
	h.res.RLDelivered = delivered
}

// secappsInvariants evaluates the three families' per-epoch invariants (row
// R13a); the first breach is returned for the harness's fail path, its
// detail led by the clause that broke.
func (h *harness) secappsInvariants() (detail string, bad bool) {
	s := h.sec
	if s == nil {
		return "", false
	}

	// No false negative above 2x threshold, with a short grace window for
	// in-flight scans and chaos-dropped SYNs.
	for _, src := range s.attackers {
		if s.attackSyns[src] >= 2*uint64(s.det.Threshold) && !s.det.Alarmed[src] {
			s.missGrace[src]++
			if s.missGrace[src] > synMissGrace {
				return fmt.Sprintf(
					"synflood-miss: attacker %#x sent %d SYNs (threshold %d) yet stayed un-alarmed for %d epochs",
					src, s.attackSyns[src], s.det.Threshold, s.missGrace[src]), true
			}
		} else {
			s.missGrace[src] = 0
		}
	}

	// Enforcement upper bound: each opened window admits at most Limit
	// capsules per tenant, so cumulative deliveries can never exceed
	// windows x limit. Loss (chaos, lost refills) only under-delivers.
	for _, t := range s.rlTenants {
		if got, cap := s.sink.Delivered[t], s.rlWindows*uint64(s.rl.Limit); got > cap {
			return fmt.Sprintf(
				"ratelimit-enforce: tenant %#x delivered %d capsules over %d windows of %d",
				t, got, s.rlWindows, s.rl.Limit), true
		}
	}

	// Cooperative recirculation: the driver defers claims the budget cannot
	// cover, so the limiter must never fire and the guard ledger must stay
	// clean.
	if n := s.hhNode.RT.RecircThrottled; n != 0 {
		return fmt.Sprintf(
			"recirc-budget: %s throttled %d recirculating capsules (claims=%d deferred=%d budget=%d/epoch)",
			s.hhNode.Name, n, s.hh.Claims, s.hh.ClaimsDeferred, recircBudget), true
	}
	if led := s.hhNode.Guard.Tenant(hxClaimFID); led != nil {
		if n := led.Count(guard.KindRecircThrottled); n != 0 {
			return fmt.Sprintf(
				"recirc-budget: guard ledger holds %d recirc-throttled entries for fid %d", n, hxClaimFID), true
		}
	}
	return "", false
}
