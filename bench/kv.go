package main

import (
	"fmt"
	"math/rand"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/switchd"
	"activermt/internal/testbed"
)

// get_hit and get_miss: one switch, one KV server, four private caches.

const (
	kvTenants = 4
	// maxGapNs bounds the seeded jitter between two sends of a burst. It is
	// below one frame's serialization time on a 40 Gbps link, so a tenant's
	// back-to-back GETs queue on its uplink and virtual latency is a
	// continuous function of the seed instead of a handful of fixed values;
	// a whole burst still spans far less than one link delay, so no frame
	// is delivered before the burst is out.
	maxGapNs = 16
)

var (
	serverMAC = testbed.MACFor(200)
	serverIP  = testbed.IPFor(999)
)

// kvOp is one pre-generated GET.
type kvOp struct {
	key    uint32 // index into the key table (get_hit: into the tenant's hitting keys)
	tenant uint8
	gap    uint8 // virtual ns to let pass after the send
}

// kvInputs is everything a KV pass consumes, generated from the seed.
type kvInputs struct {
	keys    [][2]uint32
	vals    []uint32
	hot     int  // keys each tenant populates, hottest first
	allHits bool // get_hit: draw only from keys found to hit after population
	ops     []kvOp
	sh      shape
}

// keyTable draws n distinct-looking keys and non-zero values.
func keyTable(rng *rand.Rand, n int) ([][2]uint32, []uint32) {
	keys := make([][2]uint32, n)
	vals := make([]uint32, n)
	for i := range keys {
		// Bit 31 of the first half is cleared: the all-ones key is the
		// fabric's invalidation sentinel.
		keys[i] = [2]uint32{rng.Uint32() >> 1, rng.Uint32()}
		vals[i] = rng.Uint32() | 1
	}
	return keys, vals
}

// burstTenants fills ops[i].tenant burst by burst: each tenant sends an
// equal share of the burst back-to-back, tenants in seeded order.
func burstTenants(rng *rand.Rand, ops []kvOp, roundOps int) {
	for r := 0; r < len(ops); r += roundOps {
		round := ops[r : r+roundOps]
		for off := 0; off < len(round); off += burstOps {
			b := round[off:min(off+burstOps, len(round))]
			order := rng.Perm(kvTenants)
			for i := range b {
				b[i].tenant = uint8(order[i*kvTenants/len(b)])
			}
		}
	}
}

func prepareGetHit(seed int64, sh shape) (builder, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &kvInputs{hot: 1024, allHits: true, sh: sh}
	in.keys, in.vals = keyTable(rng, in.hot)
	in.ops = make([]kvOp, sh.ops())
	for i := range in.ops {
		in.ops[i] = kvOp{key: rng.Uint32(), gap: uint8(rng.Intn(maxGapNs))}
	}
	burstTenants(rng, in.ops, sh.roundOps)
	return func(tr *tracer) (system, error) { return buildKV(in, tr) }, nil
}

func prepareGetMiss(seed int64, sh shape) (builder, error) {
	const keyspace = 131072
	rng := rand.New(rand.NewSource(seed))
	in := &kvInputs{hot: 64, sh: sh}
	in.keys, in.vals = keyTable(rng, keyspace)
	zipf := rand.NewZipf(rng, 1.05, 1, keyspace-1)
	in.ops = make([]kvOp, sh.ops())
	for i := range in.ops {
		in.ops[i] = kvOp{key: uint32(zipf.Uint64()), gap: uint8(rng.Intn(maxGapNs))}
	}
	burstTenants(rng, in.ops, sh.roundOps)
	return func(tr *tracer) (system, error) { return buildKV(in, tr) }, nil
}

// pendGet is one outstanding GET, kept in a ring indexed by the cache's
// own sequence number.
type pendGet struct {
	seq  uint32
	key  uint32
	want uint32
	at   time.Duration
	done bool
}

const pendRing = 64 // > burstOps: a slot is answered long before it is reused

type kvSystem struct {
	tb     *testbed.Testbed
	srv    *apps.KVServer
	caches [kvTenants]*apps.Cache
	in     *kvInputs
	stepper

	usable  [kvTenants][]uint32 // key indices a tenant draws from
	pend    [kvTenants][pendRing]pendGet
	probing bool
	// replaying: the ledger owns the system, answers go unchecked.
	replaying bool

	issued, answered int
	t                tally
}

// host is a testbed endpoint the benchmark attached: in a traced pass the
// link testbed built is replaced by one with a tap at each end.
type host interface {
	netsim.Endpoint
	Attach(*netsim.Port)
}

func tapHost(tb *testbed.Testbed, tr *tracer, h host, l layer, mac [6]byte, p *netsim.Port, keepAll bool) {
	if tr == nil {
		return
	}
	cfg := testbed.DefaultConfig()
	sw := &tap{tr: tr, l: layerSwitch, inner: tb.Switch}
	swPort, hostPort := retap(tb.Eng, sw, p.Peer(), &tap{tr: tr, l: l, inner: h, keepAll: keepAll}, cfg.LinkDelay, cfg.LinkBW)
	tb.Switch.AddPort(swPort, mac)
	h.Attach(hostPort)
}

// newKVTestbed builds the testbed and its KV server, store filled.
func newKVTestbed(tr *tracer, keys [][2]uint32, vals []uint32) (*testbed.Testbed, *apps.KVServer, error) {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	srv := apps.NewKVServer(tb.Eng, serverMAC, serverIP)
	_, sp := tb.Attach(srv, serverMAC)
	srv.Attach(sp)
	tapHost(tb, tr, srv, layerServer, serverMAC, sp, false)
	for i, k := range keys {
		srv.Store[apps.KeyOf(k[0], k[1])] = vals[i]
	}
	return tb, srv, nil
}

// addCache admits one private cache tenant and waits until it is
// operational.
func addCache(tb *testbed.Testbed, tr *tracer, fid uint16) (*apps.Cache, error) {
	_, _, selfIP := tb.NewHostID()
	cache := apps.NewCache(serverMAC, selfIP, serverIP)
	cl := tb.AddClient(fid, apps.CacheService(cache))
	cache.Bind(cl)
	tapHost(tb, tr, cl, layerClient, cl.MAC(), cl.Port(), false)
	if err := cl.RequestAllocation(); err != nil {
		return nil, err
	}
	if err := tb.WaitOperational(cl, 5*time.Second); err != nil {
		return nil, err
	}
	return cache, nil
}

func hotObjects(keys [][2]uint32, vals []uint32, n int) []apps.KVMsg {
	objs := make([]apps.KVMsg, n)
	for i := range objs {
		objs[i] = apps.KVMsg{Key0: keys[i][0], Key1: keys[i][1], Value: vals[i]}
	}
	return objs
}

func buildKV(in *kvInputs, tr *tracer) (system, error) {
	tb, srv, err := newKVTestbed(tr, in.keys, in.vals)
	if err != nil {
		return nil, err
	}
	s := &kvSystem{tb: tb, srv: srv, in: in, stepper: stepper{eng: tb.Eng, tr: tr}}
	s.t.lat = make([]int64, 0, in.sh.long*in.sh.roundOps)
	for t := range s.caches {
		t := t
		c, err := addCache(tb, tr, uint16(t+1))
		if err != nil {
			return nil, err
		}
		c.OnResponse = func(seq, value uint32, hit bool) { s.answer(t, seq, value, hit) }
		s.caches[t] = c
	}
	// The fourth arrival shrinks the first; let the reallocation finish
	// before populating.
	tb.RunFor(time.Second)
	hot := hotObjects(in.keys, in.vals, in.hot)
	for t, c := range s.caches {
		if !c.Client.Operational() {
			return nil, fmt.Errorf("tenant %d is %v after admission", t+1, c.Client.State())
		}
		c.SetHotObjects(hot)
		c.Populate()
	}
	s.drain()
	if in.allHits {
		// Hash collisions leave a few populated keys uncached; ask for each
		// key once and keep the ones the switch answers.
		s.probing = true
		for t := range s.caches {
			for k := 0; k < in.hot; k += burstOps {
				for i := k; i < min(k+burstOps, in.hot); i++ {
					s.get(t, uint32(i))
				}
				s.drain()
			}
		}
		s.probing = false
		for t := range s.usable {
			if len(s.usable[t]) < in.hot*9/10 {
				return nil, fmt.Errorf("tenant %d: only %d of %d populated keys hit", t+1, len(s.usable[t]), in.hot)
			}
		}
	}
	return s, nil
}

func (s *kvSystem) get(t int, key uint32) {
	k := s.in.keys[key]
	sp := s.tr.open(layerSend, nil)
	seq := s.caches[t].Get(k[0], k[1])
	s.tr.closeOp(sp, seq)
	s.pend[t][seq%pendRing] = pendGet{seq: seq, key: key, want: s.in.vals[key], at: s.tb.Eng.Now()}
	s.issued++
	if s.t.timed {
		s.t.ops++
		s.t.gets++
		s.t.sends++
	}
}

func (s *kvSystem) answer(t int, seq, value uint32, hit bool) {
	if s.replaying {
		return
	}
	p := &s.pend[t][seq%pendRing]
	if p.seq != seq || p.done {
		s.t.fail("tenant %d seq %d: unexpected or duplicate answer", t+1, seq)
		return
	}
	p.done = true
	s.answered++
	if value != p.want {
		s.t.fail("tenant %d seq %d: got %#x, want %#x", t+1, seq, value, p.want)
		return
	}
	if s.probing && hit {
		s.usable[t] = append(s.usable[t], p.key)
	}
	if s.t.timed {
		s.t.lat = append(s.t.lat, int64(s.tb.Eng.Now()-p.at))
		if hit {
			s.t.hits++
		}
	}
}

func (s *kvSystem) send(op kvOp) {
	key := op.key
	if s.in.allHits {
		u := s.usable[op.tenant]
		key = u[key%uint32(len(u))]
	}
	s.get(int(op.tenant), key)
}

func (s *kvSystem) round(i int) {
	eng := s.tb.Eng
	n := s.in.sh.roundOps
	ops := s.in.ops[i*n : (i+1)*n]
	for off := 0; off < len(ops); off += burstOps {
		for _, op := range ops[off:min(off+burstOps, len(ops))] {
			s.send(op)
			eng.RunUntil(eng.Now() + time.Duration(op.gap))
		}
		s.drain()
	}
}

func (s *kvSystem) startTimed() { s.t.timed = true }

func (s *kvSystem) device() (*switchd.Switch, *guard.Guard) { return s.tb.Switch, s.tb.Guard }

func (s *kvSystem) quiet() { s.replaying, s.t.timed = true, false }

func (s *kvSystem) replaySend(i int) { s.send(s.in.ops[i%len(s.in.ops)]) }

func (s *kvSystem) settle() { s.drain() }

func (s *kvSystem) counters() counters {
	c := counters{"netsim.events": float64(s.steps), "kvserver.requests": float64(s.srv.Requests + s.srv.Puts)}
	addSwitch(c, s.tb.Switch, s.tb.Guard)
	for _, cache := range s.caches {
		addClient(c, cache.Client)
	}
	return c
}

func addClient(c counters, cl *client.Client) {
	c["client.received"] += float64(cl.Received)
	c["client.sent"] += float64(cl.Sent)
	c["client.unactivated"] += float64(cl.SentUnactivated)
}

func (s *kvSystem) finish() *tally {
	if lost := s.issued - s.answered; lost != 0 {
		s.t.failed += lost
		s.t.errs = append(s.t.errs, fmt.Sprintf("%d GETs issued, %d answered", s.issued, s.answered))
	}
	return &s.t
}
