package main

import (
	"fmt"
	"math/rand"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/switchd"
	"activermt/internal/testbed"
)

// tenant_churn: the control plane does the work. Tenants from a fixed pool
// depart and arrive one request at a time, at constant occupancy, while a
// never-departing cache tenant probes the switch every 10 ms of virtual time.

// tenantKind is one of the three pooled services.
type tenantKind uint8

const (
	kindCache tenantKind = iota
	kindHeavyHitter
	kindCheetah
	numKinds
)

const (
	churnPool     = 96 // clients: 40 caches, 16 heavy hitters, 40 Cheetah selects
	churnProbeFID = churnPool + 1
	churnProbeHot = 64

	churnSettle   = 50 * time.Millisecond // virtual time run after each verdict
	churnDeadline = 10 * time.Second      // a request with no verdict by then has failed
	churnProbeGap = 10 * time.Millisecond
)

// churnResident is how many tenants of each kind are resident: 40 of the
// pool's 96. Only 21 heavy hitters fit beside the other tenants, so with 8
// resident no arrival can be refused.
var churnResident = [numKinds]int{kindCache: 16, kindHeavyHitter: 8, kindCheetah: 16}

// churnCycle is the kind of each departure/arrival pair, repeated: the
// pool's 5:2:5 mix, interleaved. Every request is a departure followed by an
// arrival of the same kind, so each kind's occupancy is constant and every
// seed's pass makes exactly the same number of requests of each kind; the
// seed only picks which tenant. (Left to a fair coin, the population
// wandered between 16 and 64 for thousands of requests, and since a request
// costs more the more tenants it moves, two seeds' passes differed by 40 %
// in every metric — more than any bound could absorb.)
var churnCycle = [12]tenantKind{
	kindCache, kindCheetah, kindCache, kindCheetah, kindHeavyHitter, kindCache,
	kindCheetah, kindCache, kindCheetah, kindHeavyHitter, kindCache, kindCheetah,
}

func kindOf(fid uint16) tenantKind {
	switch k := fid % 12; {
	case k < 5:
		return kindCache
	case k < 7:
		return kindHeavyHitter
	default:
		return kindCheetah
	}
}

type churnInputs struct {
	keys   [][2]uint32
	vals   []uint32
	picks  []uint32 // one per set-up arrival, then one per request
	probes []uint32 // probe key sequence, cycled
	sh     shape
}

func prepareChurn(seed int64, sh shape) (builder, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInputs{sh: sh}
	in.keys, in.vals = keyTable(rng, churnProbeHot)
	in.picks = make([]uint32, churnPool+sh.ops())
	for i := range in.picks {
		in.picks[i] = rng.Uint32()
	}
	in.probes = make([]uint32, 4096)
	for i := range in.probes {
		in.probes[i] = uint32(rng.Intn(churnProbeHot))
	}
	return func(tr *tracer) (system, error) { return buildChurn(in, tr) }, nil
}

// ctlRequest is one request as it ran, recorded for the replay ledger.
type ctlRequest struct {
	fid       uint16
	departure bool
	timed     bool // made in a timed round
}

type churnSystem struct {
	tb    *testbed.Testbed
	srv   *apps.KVServer
	probe *apps.Cache
	in    *churnInputs
	stepper

	pool           map[uint16]*client.Client
	idle, resident [numKinds][]uint16 // FIDs, in a seed-determined order

	pend     [pendRing]pendGet
	nextKey  int
	lostGets int

	arrivals, admits int
	recordsFrom      int // first controller record of the timed rounds
	utilSum, fragSum float64
	samples          int
	log              []ctlRequest
	replaying        bool // the ledger owns the system, answers go unchecked
	t                tally
}

func buildChurn(in *churnInputs, tr *tracer) (system, error) {
	tb, srv, err := newKVTestbed(tr, in.keys, in.vals)
	if err != nil {
		return nil, err
	}
	s := &churnSystem{tb: tb, srv: srv, in: in, stepper: stepper{eng: tb.Eng, tr: tr}, pool: map[uint16]*client.Client{}}
	s.t.lat = make([]int64, 0, in.sh.long*in.sh.roundOps)
	for fid := uint16(1); fid <= churnPool; fid++ {
		svc, bind := poolService(fid)
		cl := tb.AddClient(fid, svc)
		bind(cl)
		tapHost(tb, tr, cl, layerClient, cl.MAC(), cl.Port(), true)
		s.pool[fid] = cl
		s.idle[kindOf(fid)] = append(s.idle[kindOf(fid)], fid)
	}
	if s.probe, err = addCache(tb, tr, churnProbeFID); err != nil {
		return nil, err
	}
	s.probe.OnResponse = s.probeAnswer
	s.probe.SetHotObjects(hotObjects(in.keys, in.vals, churnProbeHot))
	s.probe.Populate()
	tb.RunFor(churnSettle)
	var tick func()
	tick = func() {
		s.probeGet()
		tb.Eng.Schedule(churnProbeGap, tick)
	}
	tb.Eng.Schedule(churnProbeGap, tick)
	// Admit the resident population.
	picks := in.picks
	for k, n := range churnResident {
		for i := 0; i < n; i++ {
			s.request(tenantKind(k), false, picks[0])
			picks = picks[1:]
		}
	}
	return s, nil
}

// poolService is pool client fid's service.
func poolService(fid uint16) (svc *client.Service, bind func(*client.Client)) {
	switch kindOf(fid) {
	case kindCache:
		c := apps.NewCache(serverMAC, testbed.IPFor(int(fid)), serverIP)
		return apps.CacheService(c), c.Bind
	case kindHeavyHitter:
		h := apps.NewHeavyHitter(30)
		return apps.HeavyHitterService(h), h.Bind
	default:
		return apps.CheetahSelectService(), func(*client.Client) {}
	}
}

// take removes and returns the pick-th FID of a list.
func take(list *[]uint16, pick uint32) uint16 {
	l := *list
	i := int(pick % uint32(len(l)))
	fid := l[i]
	l[i] = l[len(l)-1]
	*list = l[:len(l)-1]
	return fid
}

// request runs one arrival or departure of a tenant of the given kind until
// the requester has its verdict, then lets the system settle.
func (s *churnSystem) request(kind tenantKind, departure bool, pick uint32) {
	eng := s.tb.Eng
	idle, resident := &s.idle[kind], &s.resident[kind]
	var fid uint16
	if departure {
		fid = take(resident, pick)
	} else {
		fid = take(idle, pick)
	}
	cl := s.pool[fid]
	s.log = append(s.log, ctlRequest{fid, departure, s.t.timed})
	if s.t.timed {
		s.t.ops++
	}
	start := eng.Now()
	var err error
	sp := s.tr.open(layerSend, nil)
	if departure {
		err = cl.Release()
	} else {
		err = cl.RequestAllocation()
	}
	s.tr.closeOp(sp, uint32(fid))
	if err != nil {
		s.t.fail("fid %d: %v", fid, err)
		*idle = append(*idle, fid)
		return
	}
	s.stepWhile(func() bool {
		return cl.State() == client.Negotiating && eng.Now()-start < churnDeadline && eng.Pending() > 0
	})
	switch st := cl.State(); {
	case st == client.Negotiating:
		s.t.fail("fid %d: no verdict in %v", fid, churnDeadline)
		*idle = append(*idle, fid)
	case departure && st == client.Idle:
		*idle = append(*idle, fid)
	case !departure && st == client.Operational:
		*resident = append(*resident, fid)
		if s.t.timed {
			s.arrivals++
			s.admits++
			s.t.lat = append(s.t.lat, int64(eng.Now()-start))
		}
	case !departure && st == client.Idle:
		// Refused: a verdict, and a failed op.
		*idle = append(*idle, fid)
		if s.t.timed {
			s.arrivals++
		}
		s.t.fail("fid %d: arrival refused", fid)
	default:
		s.t.fail("fid %d: %v after a %s", fid, st, map[bool]string{true: "departure", false: "arrival"}[departure])
		*idle = append(*idle, fid)
	}
	s.runFor(churnSettle)
	if s.t.timed {
		al := s.tb.Ctrl.Allocator()
		s.utilSum += al.Utilization()
		s.fragSum += al.Fragmentation()
		s.samples++
	}
}

func (s *churnSystem) probeGet() {
	key := s.in.probes[s.nextKey%len(s.in.probes)]
	s.nextKey++
	k := s.in.keys[key]
	sp := s.tr.open(layerSend, nil)
	seq := s.probe.Get(k[0], k[1])
	s.tr.closeOp(sp, seq)
	p := &s.pend[seq%pendRing]
	if p.seq != 0 && !p.done {
		// Dropped while the probe tenant was deactivated for a
		// reallocation: a lost hit, not a failed op.
		s.lostGets++
	}
	*p = pendGet{seq: seq, key: key, want: s.in.vals[key], at: s.tb.Eng.Now()}
	if s.t.timed {
		s.t.gets++
		s.t.sends++
	}
}

func (s *churnSystem) probeAnswer(seq, value uint32, hit bool) {
	if s.replaying {
		return
	}
	p := &s.pend[seq%pendRing]
	if p.seq != seq || p.done {
		s.t.fail("probe seq %d: unexpected or duplicate answer", seq)
		return
	}
	p.done = true
	if value != p.want {
		s.t.fail("probe seq %d: got %#x, want %#x", seq, value, p.want)
		return
	}
	if s.t.timed && hit {
		s.t.hits++
	}
}

// round makes request i: even requests are departures, odd ones the arrival
// of a tenant of the kind that just left.
func (s *churnSystem) round(i int) {
	s.request(churnCycle[i/2%len(churnCycle)], i%2 == 0, s.in.picks[churnPool+i])
}

func (s *churnSystem) device() (*switchd.Switch, *guard.Guard) { return s.tb.Switch, s.tb.Guard }

func (s *churnSystem) quiet() { s.replaying, s.t.timed = true, false }

func (s *churnSystem) replaySend(int) { s.probeGet() }

// settle runs one probe period: the probe timer never lets the engine drain.
func (s *churnSystem) settle() { s.runFor(churnProbeGap) }

// runFor steps the engine through d of virtual time.
func (s *churnSystem) runFor(d time.Duration) {
	done := false
	s.eng.Schedule(d, func() { done = true })
	s.stepWhile(func() bool { return !done })
}

func (s *churnSystem) startTimed() {
	s.t.timed = true
	s.recordsFrom = len(s.tb.Ctrl.Records)
}

func (s *churnSystem) counters() counters {
	c := counters{
		"netsim.events":     float64(s.steps),
		"kvserver.requests": float64(s.srv.Requests + s.srv.Puts),
		"probe.lost":        float64(s.lostGets),
	}
	addSwitch(c, s.tb.Switch, s.tb.Guard)
	addClient(c, s.probe.Client)
	for _, cl := range s.pool {
		addClient(c, cl)
	}
	return c
}

func (s *churnSystem) finish() *tally {
	if err := s.tb.Ctrl.Allocator().AuditBooks(); err != nil {
		s.t.fail("allocator books: %v", err)
	}
	for _, f := range guard.AuditRuntime(s.tb.RT) {
		s.t.fail("runtime audit: %v", f)
	}
	for k, want := range churnResident {
		if got := len(s.resident[k]); got != want && s.t.ops%2 == 0 {
			s.t.fail("%d tenants of kind %d resident, want %d", got, k, want)
		}
	}
	var admits, reallocs, tableOps float64
	var compute, snapshot, table time.Duration
	for _, rec := range s.tb.Ctrl.Records[s.recordsFrom:] {
		if rec.Release || rec.Failed {
			continue
		}
		admits++
		reallocs += float64(rec.Reallocated)
		tableOps += float64(rec.TableOps)
		compute += rec.Compute
		snapshot += rec.SnapshotWait
		table += rec.TableTime
	}
	ms := func(d time.Duration) float64 { return ratio(float64(d)/1e6, admits) }
	s.t.extra = counters{
		"alloc.admit_ratio":              ratio(float64(s.admits), float64(s.arrivals)),
		"alloc.realloc_per_admit":        ratio(reallocs, admits),
		"alloc.utilization":              ratio(s.utilSum, float64(s.samples)),
		"alloc.fragmentation":            ratio(s.fragSum, float64(s.samples)),
		"controller.table_ops_per_admit": ratio(tableOps, admits),
		"controller.virt_compute_ms":     ms(compute),
		"controller.virt_snapshot_ms":    ms(snapshot),
		"controller.virt_table_ms":       ms(table),
		"controller.snapshot_timeouts":   float64(s.tb.Ctrl.SnapshotTimeouts),
	}
	if s.t.timed && s.admits == 0 {
		s.t.errs = append(s.t.errs, fmt.Sprintf("no arrival admitted in %d requests", s.t.ops))
	}
	return &s.t
}
