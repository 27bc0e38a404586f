// Package soak is the long-horizon invariant harness: it assembles a full
// leaf-spine fabric (internal/fabric) with a coherent cache, a key-value
// server, link-health monitoring, and a churning tenant population (one
// inelastic admission per tenant on its own leaf's switch), then
// runs hours of virtual time under a seeded chaos schedule while checking
// the system's safety invariants after every virtual epoch. Each violation
// names its row of docs/invariants.md:
//
//   - R1a, no stale read. Every write's acknowledged value becomes the key's
//     floor; a read issued after the ack that returns an older value is a
//     coherence violation, no matter which replica served it.
//   - P1 and P4, from switchd.Node.Check on every switch: no orphan region,
//     overlap or translation escape, and books that never bleed blocks over
//     thousands of admit/release cycles.
//   - R14, bounded fragmentation: no switch stays above fragBound for
//     fragEpochs consecutive epochs.
//   - R13a, with Config.Secapps: the security apps' contracts (secapps.go).
//   - R15, bounded tail latency. The p99 of completed reads, computed from
//     the telemetry registry's histogram, must stay under a configured bound —
//     chaos may LOSE reads (they are counted, not latency-sampled) but must
//     not silently stretch the ones that complete.
//
// The harness drives the simulation from a plain loop — never from inside
// engine callbacks — because admission and repair run the engine
// internally. On the first violation it stops and attaches a
// flight-recorder dump (the most recent fault injections, link transitions,
// and recovery actions) so the failure is diagnosable from the report
// alone. A mid-soak "spine kill" milestone partitions the cache's home
// spine and crashes its controller, then verifies from the fabric's
// counters that the cache went degraded, routes were repointed, and the
// cache recovered.
package soak

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/fabric"
	"activermt/internal/telemetry"
)

// Config parameterizes one soak run. Zero values take the defaults noted on
// each field; the zero Config is a valid one-minute smoke soak. Everything
// else about the run — topology, rates, bounds — is a constant beside its
// use.
type Config struct {
	Duration time.Duration // virtual run length (default 1m)
	Seed     int64         // chaos + workload PRNG seed

	SpineKillAt time.Duration // home-spine kill milestone (default Duration/2; <0 disables)

	// Secapps enables the three security-app workload families from
	// internal/secapps — SYN-flood detection (replicated on the two ingress
	// leaves), per-tenant rate limiting, and the recirculating heavy hitter
	// — each with its own per-epoch invariant. Default off: the baseline
	// soak's PRNG streams, placements, and CSV stay bit-identical.
	Secapps bool

	CSV      io.Writer                        // optional per-epoch CSV rows
	Progress func(format string, args ...any) // optional progress sink
}

func (cfg Config) withDefaults() Config {
	if cfg.Duration == 0 {
		cfg.Duration = time.Minute
	}
	if cfg.SpineKillAt == 0 {
		cfg.SpineKillAt = cfg.Duration / 2
	}
	if cfg.Progress == nil {
		cfg.Progress = func(string, ...any) {}
	}
	return cfg
}

// The run's fixed shape.
const (
	numLeaves = 3 // cache replicas on leaves 0 and 1, server on the last
	numSpines = 2
	epoch     = time.Second           // invariant-check interval
	p99Bound  = 10 * time.Millisecond // read-latency p99 ceiling
)

// Violation is one invariant breach, with the flight-recorder context
// captured at detection time.
type Violation struct {
	At     time.Duration // virtual time
	Epoch  int
	Row    string // the docs/invariants.md row: R1a, P1, P4, R14, R13a or R15
	Detail string
	Trace  []string // recent fault/recovery events, oldest first
}

func (v Violation) String() string {
	return fmt.Sprintf("[epoch %d @%v] %s: %s", v.Epoch, v.At, v.Row, v.Detail)
}

// SpineKillReport records what the mid-soak home-spine kill exercised.
type SpineKillReport struct {
	Fired     bool
	Degraded  bool // cache entered degraded mode
	Rerouted  bool // routes repointed around the dead spine
	Recovered bool // degraded exited and drain lifted after heal
}

// Result is one soak run's ledger.
type Result struct {
	Epochs  int
	Elapsed time.Duration // virtual

	ReadsDone, Acked uint64 // completed reads, acknowledged writes
	Hits, Lost       uint64

	TenantsPlaced, TenantsReleased int

	ChaosInstalled int
	Reroutes       uint64
	SpineKill      SpineKillReport

	DefragPasses     uint64  // defragmentation passes that migrated a tenant, across all nodes
	DefragMigrations uint64  // tenants live-migrated by those passes
	MaxFragmentation float64 // worst per-node fragmentation seen at an epoch edge

	// Security-app workload counters, zero unless Config.Secapps.
	SynSent     uint64 // SYN capsules issued (benign + attack)
	SynAlarms   uint64 // distinct sources the detector alarmed
	RLOffered   uint64 // rate-limited data capsules offered
	RLDelivered uint64 // rate-limited data capsules the sink received
	HHObserved  uint64 // heavy-hitter key occurrences streamed
	HHClaims    uint64 // claim capsules issued (one recirculation each)
	HHDeferred  uint64 // claims deferred for lack of recirculation budget

	P99     time.Duration
	HitRate float64

	Violations []Violation
}

// Run executes one soak to completion (or first violation). The error
// return covers harness construction only — invariant breaches are reported
// in Result.Violations, never as errors.
func Run(cfg Config) (*Result, error) {
	h, err := newHarness(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return h.run()
}

// harness is one assembled soak instance.
type harness struct {
	cfg Config
	res *Result

	f   *fabric.Fabric
	fc  *fabric.Controller
	hm  *fabric.Health
	cc  *fabric.CoherentCache
	srv *apps.KVServer
	reg *telemetry.Registry
	tel *chaos.Telemetry

	rng  *rand.Rand
	hist telemetry.Histogram // completed-read latency, virtual ns
	ring *flightRing

	keys         []keyState
	pendingReads map[uint32]readState
	pendingPuts  map[uint32]putState
	nextVal      uint32

	tenants   []*liveTenant
	fidFree   []uint16
	nextFID   uint16
	arrivalCr float64 // fractional tenant arrivals carried across epochs

	repairFID uint16
	nextChaos time.Duration
	killed    bool
	failed    *Violation // set by callbacks, harvested by the driver
	csv       *csvWriter

	// The fabric's degraded entry, exit and reroute counts when the spine
	// kill fired; the kill's arc is read from how far they have moved since.
	killEntries, killExits, killReroutes uint64

	fragOver map[string]int // consecutive epochs over fragBound, per node

	sec *secState // security-app families; nil unless Config.Secapps
}

const (
	cacheFID      = 400
	repairFIDBase = 401
	tenantFIDBase = 1000
	tenantFIDMax  = 60000
)

func newHarness(cfg Config) (*harness, error) {
	fcfg := fabric.DefaultConfig(numLeaves, numSpines)
	// Shrink the stages so tenant churn creates genuine capacity pressure
	// (halved asks, refusals, fragmentation) at soak-sized demands.
	fcfg.RMT.StageWords = 96 * 256
	fcfg.Alloc.StageWords = 96 * 256
	f, err := fabric.New(fcfg)
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg:          cfg,
		res:          &Result{},
		f:            f,
		fc:           fabric.NewController(f),
		reg:          telemetry.NewRegistry(),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		ring:         newFlightRing(256),
		pendingReads: make(map[uint32]readState),
		pendingPuts:  make(map[uint32]putState),
		nextFID:      tenantFIDBase,
		repairFID:    repairFIDBase,
		nextChaos:    chaosEvery,
		fragOver:     make(map[string]int),
	}

	// Telemetry: the fabric controller, ONE switch runtime (leaf 0 — metric
	// names are registry-global, so a second runtime would collide), the
	// chaos event counter, and the soak's own read-latency histogram.
	h.fc.AttachTelemetry(h.reg)
	f.Leaves[0].RT.AttachTelemetry(h.reg)
	h.tel = chaos.NewTelemetry(h.reg)
	h.reg.Histogram("activermt_soak_read_latency_ns", "latency of completed soak cache reads, virtual nanoseconds",
		func() *telemetry.Histogram { return &h.hist })

	// Server on the last leaf, cache replicas on leaves 0 and 1.
	if h.srv, err = f.AddKVServer(numLeaves - 1); err != nil {
		return nil, err
	}
	cc, err := fabric.NewCoherentCache(h.fc, cacheFID, []int{0, 1}, h.srv.MAC(), h.srv.IP())
	if err != nil {
		return nil, err
	}
	h.cc = cc

	h.hm = fabric.NewHealth(f)
	cc.WatchHealth(h.hm)
	h.hm.Subscribe(func(ev fabric.LinkEvent) {
		h.ring.note(f.Eng.Now(), "link leaf%d<->spine%d down=%v", ev.Leaf, ev.Spine, ev.Down)
	})

	cc.OnResponse = h.onReadResponse
	cc.OnWriteAck = h.onWriteAck

	if err := h.warmKeys(); err != nil {
		return nil, err
	}
	if cfg.Secapps {
		if err := h.initSecapps(); err != nil {
			return nil, err
		}
	}
	h.hm.Start()
	return h, nil
}

func (h *harness) run() (*Result, error) {
	eng := h.f.Eng
	h.csv = newCSVWriter(h.cfg.CSV, h.cfg.Secapps)
	h.csv.header()
	h.startPumps()
	h.startSecappsPumps()
	end := eng.Now() + h.cfg.Duration

	for eng.Now() < end && h.failed == nil {
		h.f.RunFor(epoch)
		h.res.Epochs++

		// Control actions run from the driver, outside engine callbacks:
		// admission and repair step the engine internally.
		h.churnTenants()
		h.maybeChaos()
		h.maybeSpineKill()
		h.maybeRepair()
		h.secappsEpoch()

		h.expireReads()
		h.checkInvariants()
		h.observeKillProgress()
		h.csv.row(h)

		if h.res.Epochs%32 == 0 {
			h.cfg.Progress("soak: epoch %d t=%v reads=%d writes=%d lost=%d tenants=%d violations=%d",
				h.res.Epochs, eng.Now(), h.res.ReadsDone, h.res.Acked, h.res.Lost,
				len(h.tenants), len(h.res.Violations))
		}
	}
	h.hm.Stop()
	h.finish()
	return h.res, nil
}

// checkInvariants runs the per-epoch invariant sweep. The first breach
// freezes the flight recorder into the violation and stops the run.
func (h *harness) checkInvariants() {
	now := h.f.Eng.Now()
	if h.failed != nil { // raised by a callback (stale read) mid-epoch
		h.res.Violations = append(h.res.Violations, *h.failed)
		return
	}
	fail := func(v Violation) {
		v.At, v.Epoch, v.Trace = now, h.res.Epochs, h.ring.dump(h.reg)
		h.res.Violations = append(h.res.Violations, v)
		h.failed = &v
	}
	for _, n := range h.f.Nodes() {
		if vs := n.Check(); len(vs) > 0 {
			fail(Violation{Row: vs[0].Row, Detail: n.Name + ": " + vs[0].Detail})
			return
		}
	}
	if name, frag, bad := h.fragSweep(); bad {
		fail(Violation{Row: "R14", Detail: fmt.Sprintf("%s: fragmentation %.3f above %.3f for %d consecutive epochs",
			name, frag, fragBound, fragEpochs)})
		return
	}
	if detail, bad := h.secappsInvariants(); bad {
		fail(Violation{Row: "R13a", Detail: detail})
		return
	}
	if p99, n := h.readP99(); n >= 100 && p99 > p99Bound {
		fail(Violation{Row: "R15", Detail: fmt.Sprintf("read p99 %v exceeds bound %v over %d reads", p99, p99Bound, n)})
	}
}

// The bounded-fragmentation invariant: no node may hold fragmentation above
// fragBound for fragEpochs consecutive epochs.
const (
	fragBound  = 0.98
	fragEpochs = 5
)

// fragSweep runs the bounded-fragmentation invariant. A transient spike
// right after a release wave is legal — the bound is on sustained
// saturation. Returns the breaching node and its fragmentation when the
// invariant is breached.
func (h *harness) fragSweep() (string, float64, bool) {
	for _, n := range h.f.Nodes() {
		f := n.Ctrl.Allocator().Fragmentation()
		if f > h.res.MaxFragmentation {
			h.res.MaxFragmentation = f
		}
		if f > fragBound {
			h.fragOver[n.Name]++
			if h.fragOver[n.Name] >= fragEpochs {
				return n.Name, f, true
			}
		} else {
			h.fragOver[n.Name] = 0
		}
	}
	return "", 0, false
}

// readP99 computes the p99 of completed reads from the histogram the
// registry exposes as activermt_soak_read_latency_ns.
func (h *harness) readP99() (time.Duration, uint64) {
	return time.Duration(histQuantile(&h.hist, 0.99)), h.hist.Count
}

func (h *harness) finish() {
	h.res.Elapsed = h.f.Eng.Now()
	h.res.Reroutes = h.f.Reroutes
	h.res.P99, _ = h.readP99()
	h.res.HitRate = h.cc.HitRate()
	for _, n := range h.f.Nodes() {
		h.res.DefragPasses += n.Ctrl.DefragPasses
		h.res.DefragMigrations += n.Ctrl.DefragMigrations
	}
}
