// Cross-switch cache coherence on the leaf-spine fabric.
//
// The coherent cache replicates one FID's cache region on every reader
// leaf plus the HOME spine — the spine that carries all traffic toward the
// backing KV server (SpineFor(server)). Because queries are addressed to
// the server, every read path is leaf -> home -> server-leaf: a read
// first consults the reader's leaf replica, then the home replica, and
// only then reaches the server. Writes keep the copies coherent with two
// capsule kinds built from the same populate program (RTS replaced by NOP,
// apps.CoherentCacheService):
//
//   - invalidation: a populate-fwd capsule writing the sentinel key into
//     the stale leaf's replica. It is sent FROM that leaf's own frontend,
//     addressed to the frontend's own MAC, so it hairpins on the host link:
//     up to the leaf switch (where the sentinel executes), straight back to
//     the frontend. Delivery back at the frontend IS the acknowledgement —
//     the capsule carries a KVInval payload whose key and Seq name the
//     write in flight. Because the hairpin never crosses a fabric link, no
//     fabric fault can silently lose an invalidation; a lost hairpin (host
//     link chaos) is retransmitted until acknowledged.
//   - update: a populate-fwd capsule carrying the KVPut payload, addressed
//     to the server. It installs the new value at the writer's leaf (and
//     any replica en route — normally the home spine); the server applies
//     the authoritative update and acks with a KVResp. A companion capsule
//     addressed to the home SWITCH itself installs the value at the home
//     replica and terminates there — necessary because a writer on the
//     server's own leaf never crosses the home spine on the server path.
//
// Writes are two-phase: phase 1 invalidates every other leaf copy and waits
// for all hairpin acks; only then does phase 2 commit (home update + server
// write-through). A write is acknowledged (KVResp/WriteAck) only after the
// commit capsule traversed its whole path — so at WriteAck time every leaf
// copy of the old value is gone and every replica the commit crossed holds
// the new one, which is the protocol's linearization point: a read issued
// after a WriteAck can never return the overwritten value. The fill rule: a
// read answered beyond its own leaf (a miss, or a hit at the home or another
// leaf) refills that leaf only if no write to the key overlapped it — none in
// flight when it was issued, none started before its answer — so a slow read
// cannot resurrect a dead value either.
//
// Degraded-mode operation when the home spine becomes unreachable — drain,
// stale-key tracking, resynchronization, and whole-set repair — lives in
// failover.go.
package fabric

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/packet"
)

// Sentinel key halves an invalidation writes into a bucket: no real object
// may use this key.
const (
	InvalKey0 = ^uint32(0)
	InvalKey1 = ^uint32(0)
)

// Retransmit intervals of the two write phases, each backing off x2 up to
// 16x: the hairpin invalidation and the commit capsule.
const (
	invalRetry  = 200 * time.Microsecond
	commitRetry = 2 * time.Millisecond
)

// front is a coherent cache's per-leaf frontend: the replica client that
// issues queries and receives replies on that leaf.
type front struct {
	leaf int
	cl   *client.Client
	ip   netip.Addr
}

// phase is how far a write has come: queued behind the key's write in
// flight, invalidating every other leaf copy, committing (home install plus
// server write-through), and acked by the server.
type phase uint8

const (
	queued phase = iota
	invalidating
	committing
	acked
)

// write is one Put: its phase, its unacknowledged hairpin invalidations, and
// the write to the same key queued behind it. Records are recycled: one goes
// back to the cache's free list at its server ack and its gen moves on, so a
// retry armed for an earlier Put (its arg carries the gen it was armed
// under) never acts on the record's next one.
type write struct {
	c           *CoherentCache
	gen         uint64
	phase       phase
	leaf        int
	k0, k1      uint32
	addr, value uint32
	seq         uint32
	invals      []inval // at most one per other leaf
	commitTries int
	next        *write
}

// inval is one unacknowledged hairpin invalidation toward a stale leaf.
type inval struct {
	seq         uint32
	leaf, tries int
}

// A retry timer's arg: the record's gen above retryGenShift, retryCommit for
// a commit retry, and an invalidation retry's seq in the low word.
const retryCommit, retryGenShift = 1 << 32, 33

// pendingGet is what a GET found at issue (see Get).
type pendingGet struct {
	wgen      uint32
	homeStale bool
}

// CoherentCache is the replicated, write-coherent tier of the fabric cache
// exemplar.
type CoherentCache struct {
	fc     *Controller
	set    *ReplicaSet
	srvMAC packet.MAC
	srvIP  netip.Addr
	home   int // home spine index (spineForMAC(server))
	svc    func() *client.Service

	fronts  map[int]*front
	dir     map[uint64]uint64 // key -> mask of the leaves holding a copy
	free    []*write          // acked write records, for the next Puts
	seq     uint32
	pending map[uint32]pendingGet // GET seq -> what the read found at issue
	writing map[uint64]*write     // key -> write in flight
	wgens   map[uint64]uint32     // key -> write generation
	payload []byte                // datagram scratch of the senders; the client copies from it

	// Degraded-mode state (failover.go).
	health       *Health
	homeState    homeState
	recoveryGen  uint64          // bumped as each recovery starts; its timers carry it
	recoveryLeaf int             // the leaf whose healed home link a recovery confirms
	linksDown    int             // frontends' home links the health monitor holds dead
	homeStale    map[uint64]bool // keys whose home copy may be stale

	// Stats.
	Hits, Misses, Fills, WriteAcks uint64
	PopAcks                        uint64
	InvalSent, InvalDelivered      uint64
	InvalRetransmits               uint64
	CommitRetransmits              uint64
	FillsSuppressed                uint64
	HomeSyncs                      uint64
	Repairs                        uint64
	HomeEvictions                  uint64

	// OnResponse fires for every completed GET.
	OnResponse func(leaf int, seq, value uint32, hit bool)
	// OnWriteAck fires when a write's server ack lands — the point after
	// which no read may return an older value for that key.
	OnWriteAck func(leaf int, seq, value uint32)
}

// NewCoherentCache places the replica set (reader leaves + home spine for
// the server) and wires a frontend on every reader leaf.
func NewCoherentCache(fc *Controller, fid uint16, leaves []int, srvMAC packet.MAC, srvIP netip.Addr) (*CoherentCache, error) {
	if slices.ContainsFunc(leaves, func(l int) bool { return l >= 64 }) {
		return nil, fmt.Errorf("fabric: cache reader leaves %v: the directory holds leaves 0-63", leaves)
	}
	set, err := fc.PlaceReplicas(fid, leaves, srvMAC, apps.CoherentCacheService)
	if err != nil {
		return nil, err
	}
	c := &CoherentCache{
		fc:        fc,
		set:       set,
		srvMAC:    srvMAC,
		srvIP:     srvIP,
		home:      fc.F.spineForMAC(srvMAC),
		svc:       apps.CoherentCacheService,
		fronts:    make(map[int]*front),
		dir:       make(map[uint64]uint64),
		pending:   make(map[uint32]pendingGet),
		writing:   make(map[uint64]*write),
		wgens:     make(map[uint64]uint32),
		homeStale: make(map[uint64]bool),
	}
	for _, m := range set.Members {
		if !m.Node.Leaf {
			continue // the home spine's client only holds the admission
		}
		fr := &front{leaf: m.Leaf, cl: m.Client, ip: netip.AddrFrom4([4]byte{10, 2, 0, byte(m.Leaf)})}
		m.Client.Handler = c.handlerFor(fr)
		c.fronts[m.Leaf] = fr
	}
	return c, nil
}

// Set returns the underlying replica set.
func (c *CoherentCache) Set() *ReplicaSet { return c.set }

// Home returns the home spine node for the cache's server.
func (c *CoherentCache) Home() *Node { return c.fc.F.SpineFor(c.srvMAC) }

// Capacity returns the bucket count of the shared replica region.
func (c *CoherentCache) Capacity() int { return apps.Buckets(c.set.Placement) }

// bucket hashes a key into the shared region — valid on every replica
// because the placements are identical.
func (c *CoherentCache) bucket(k0, k1 uint32) (uint32, bool) {
	return apps.Bucket(c.set.Placement, k0, k1)
}

// Get issues a GET from the given leaf's frontend: the query executes at
// the leaf replica, then (on miss) the home replica, then reaches the
// server. Returns the sequence number.
func (c *CoherentCache) Get(leaf int, k0, k1 uint32) (uint32, error) {
	fr, ok := c.fronts[leaf]
	if !ok {
		return 0, fmt.Errorf("fabric: no cache frontend on leaf %d", leaf)
	}
	c.seq++
	msg := apps.KVMsg{Op: apps.KVGet, Key0: k0, Key1: k1, Seq: c.seq}
	c.payload = apps.BuildKV(c.payload[:0], fr.ip, c.srvIP, 40000, apps.KVPort, &msg)
	addr, ok := c.bucket(k0, k1)
	if !ok {
		return 0, fmt.Errorf("fabric: cache has no capacity")
	}
	key := apps.KeyOf(k0, k1)
	p := pendingGet{wgen: c.wgens[key], homeStale: c.homeStale[key]}
	if c.writing[key] != nil {
		p.wgen-- // one the key has passed: a read over a write never fills
	}
	c.pending[c.seq] = p
	return c.seq, fr.cl.SendProgram("main", [4]uint32{k0, k1, addr, 0}, 0, c.payload, c.srvMAC)
}

// Put writes a key from the given leaf, two-phase: phase 1 sends a hairpin
// invalidation to every OTHER leaf holding a copy and waits for all acks;
// phase 2 (commit) installs the new value at the writer's leaf and the home
// spine and writes it through to the server. The directory then records the
// writer as the only leaf copy. Writes to one key are serialised: a Put that
// finds one in flight queues behind it and starts when that write's ack
// lands. Returns the write's sequence number — the KVResp carrying it
// (WriteAck) is the write's linearization point.
func (c *CoherentCache) Put(leaf int, k0, k1, value uint32) (uint32, error) {
	if _, ok := c.fronts[leaf]; !ok {
		return 0, fmt.Errorf("fabric: no cache frontend on leaf %d", leaf)
	}
	addr, ok := c.bucket(k0, k1)
	if !ok {
		return 0, fmt.Errorf("fabric: cache has no capacity")
	}
	c.seq++
	var w *write
	if n := len(c.free); n > 0 {
		w, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w = &write{c: c}
	}
	w.leaf, w.k0, w.k1, w.addr, w.value, w.seq = leaf, k0, k1, addr, value, c.seq
	if last := c.writing[apps.KeyOf(k0, k1)]; last != nil {
		for last.next != nil {
			last = last.next
		}
		last.next = w
	} else {
		c.step(w)
	}
	return w.seq, nil
}

// step moves a write forward. A queued write becomes the key's write in
// flight: it bumps the key's write generation (suppressing fills issued
// before it), sends a hairpin invalidation to every other leaf copy and
// leaves its writer as the directory's only copy. An invalidating write
// commits once no invalidation is left unacknowledged. Writes to a key queue
// because starting one over an uncommitted write would invalidate that
// writer before its commit is sent and drop it from the directory, so its
// commit would install a copy nothing ever invalidates again.
func (c *CoherentCache) step(w *write) {
	if w.phase == queued {
		key := apps.KeyOf(w.k0, w.k1)
		c.wgens[key]++
		c.writing[key] = w
		w.phase = invalidating
		for m := c.dir[key] &^ (1 << w.leaf); m != 0; m &= m - 1 {
			c.seq++
			iv := inval{seq: c.seq, leaf: bits.TrailingZeros64(m)}
			w.invals = append(w.invals, iv)
			c.sendInval(w, iv)
		}
		c.dir[key] = 1 << w.leaf
	}
	if w.phase == invalidating && len(w.invals) == 0 {
		w.phase = committing
		c.sendCommit(w)
	}
}

// sendInval sends (or resends) invalidation iv: a sentinel write from the
// STALE leaf's own frontend addressed to that frontend's own MAC. The
// capsule hairpins on the host link — executes at the stale leaf, returns to
// the frontend — so its delivery acknowledges the eviction, and no fabric
// fault can lose it. The KVInval payload carries the key and iv's seq.
// Retries never give up: committing with a copy possibly live would break
// the no-stale invariant, and a frontend whose host link is dead cannot read
// either, so blocking the write is safe.
func (c *CoherentCache) sendInval(w *write, iv inval) {
	fr := c.fronts[iv.leaf]
	msg := apps.KVMsg{Op: apps.KVInval, Key0: w.k0, Key1: w.k1, Seq: iv.seq}
	c.payload = apps.BuildKV(c.payload[:0], fr.ip, fr.ip, 40000, 40000, &msg)
	_ = fr.cl.SendProgram("populate-fwd",
		[4]uint32{InvalKey0, InvalKey1, w.addr, 0},
		packet.FlagPreload, c.payload, fr.cl.MAC())
	c.InvalSent++
	c.fc.F.Eng.ScheduleTimer(invalRetry*(1<<uint(min(iv.tries, 4))), w, w.gen<<retryGenShift|uint64(iv.seq))
}

// sendCommit sends (or resends) a write's commit — home install plus server
// write-through — until the server's KVResp lands: the capsule or its ack can
// die on a faulted path, and the server applies repeated PUTs of the same
// value idempotently.
func (c *CoherentCache) sendCommit(w *write) {
	fr := c.fronts[w.leaf]
	_ = c.updateHome(fr, w.k0, w.k1, w.addr, w.value)
	msg := apps.KVMsg{Op: apps.KVPut, Key0: w.k0, Key1: w.k1, Value: w.value, Seq: w.seq}
	c.payload = apps.BuildKV(c.payload[:0], fr.ip, c.srvIP, 40000, apps.KVPort, &msg)
	_ = fr.cl.SendProgram("populate-fwd",
		[4]uint32{w.k0, w.k1, w.addr, w.value},
		packet.FlagPreload, c.payload, c.srvMAC)
	c.fc.F.Eng.ScheduleTimer(commitRetry*(1<<uint(min(w.commitTries, 4))), w, w.gen<<retryGenShift|retryCommit)
}

// Fire is a write's retry timer: it resends the hairpin its arg names while
// that is unacknowledged, or the commit while the write is committing. A
// retry armed under an earlier gen was for a Put the record has since
// finished, and does nothing.
func (w *write) Fire(arg uint64) {
	if arg>>retryGenShift != w.gen {
		return
	}
	if arg&retryCommit != 0 {
		if w.phase == committing {
			w.commitTries++
			w.c.CommitRetransmits++
			w.c.sendCommit(w)
		}
		return
	}
	for i := range w.invals {
		if iv := &w.invals[i]; iv.seq == uint32(arg) {
			iv.tries++
			w.c.InvalRetransmits++
			w.c.sendInval(w, *iv)
			return
		}
	}
}

// updateHome installs a value at the home spine replica with a capsule
// addressed to the home switch itself: it executes at the sender's leaf and
// at the home, then terminates (the switch MAC resolves to no egress port).
// This keeps the home current even when the sender sits on the server's own
// leaf and the server-path capsule never crosses a spine. When the health
// monitor says the sender's link to the home is dead — or the home is
// drained, where an unacknowledged install could be lost with no reader to
// notice until the drain lifts — the install is skipped and the key marked
// home-stale instead; the recovery scrub (failover.go) zeroes it from the
// home replica before routes cross the home again.
func (c *CoherentCache) updateHome(fr *front, k0, k1, addr, value uint32) error {
	if (c.health != nil && c.health.LinkDown(fr.leaf, c.home)) || c.fc.F.Drained(c.home) {
		c.homeStale[apps.KeyOf(k0, k1)] = true
		return nil
	}
	return fr.cl.SendProgram("populate-fwd",
		[4]uint32{k0, k1, addr, value},
		packet.FlagPreload, nil, c.Home().MAC)
}

// Warm pre-populates objects from one leaf (each install writes the leaf
// replica and the home spine en route to the server's leaf).
func (c *CoherentCache) Warm(leaf int, objs []apps.KVMsg) error {
	fr, ok := c.fronts[leaf]
	if !ok {
		return fmt.Errorf("fabric: no cache frontend on leaf %d", leaf)
	}
	for _, o := range objs {
		addr, ok := c.bucket(o.Key0, o.Key1)
		if !ok {
			return fmt.Errorf("fabric: cache has no capacity")
		}
		if err := fr.cl.SendProgram("populate-fwd",
			[4]uint32{o.Key0, o.Key1, addr, o.Value},
			packet.FlagPreload, nil, c.srvMAC); err != nil {
			return err
		}
		if err := c.updateHome(fr, o.Key0, o.Key1, addr, o.Value); err != nil {
			return err
		}
		c.recordCopy(apps.KeyOf(o.Key0, o.Key1), leaf)
	}
	return nil
}

// recordCopy marks a leaf as holding a key.
func (c *CoherentCache) recordCopy(key uint64, leaf int) {
	c.dir[key] |= 1 << leaf
}

// handlerFor builds the per-frontend reply dispatcher.
func (c *CoherentCache) handlerFor(fr *front) func(*client.Client, *packet.Frame) {
	return func(cl *client.Client, f *packet.Frame) {
		if f.Active != nil {
			h := f.Active.Header
			if h.Flags&packet.FlagRTS == 0 {
				// A populate-fwd capsule that terminated here: an
				// invalidation, fill or update echo that traversed its path.
				// Only an invalidation carries a KVInval payload: it names the
				// write in flight, and its return acknowledges the eviction.
				if msg, ok := apps.ReplyKV(f); ok && msg.Op == apps.KVInval {
					c.InvalDelivered++
					if w := c.writing[apps.KeyOf(msg.Key0, msg.Key1)]; w != nil {
						w.invals = slices.DeleteFunc(w.invals, func(iv inval) bool { return iv.seq == msg.Seq })
						c.step(w)
					}
				}
				return
			}
			if h.Flags&packet.FlagPreload != 0 {
				c.PopAcks++
				return
			}
			// Query hit: served by this leaf's replica or, if another switch
			// set its MAC as the source at RTS, beyond it — then it fills.
			msg, _ := apps.ReplyKV(f) // the query rode back under the reply
			if f.Eth.Src == c.fc.F.Spines[c.home].MAC && c.pending[msg.Seq].homeStale {
				// A drained home is still crossed when it is the reader's only
				// path: its copy may be stale, so the server answers instead.
				c.payload = apps.BuildKV(c.payload[:0], fr.ip, c.srvIP, 40000, apps.KVPort, &msg)
				_ = fr.cl.SendPlain(c.payload, c.srvMAC)
				return
			}
			c.Hits++
			if f.Eth.Src == c.fc.F.Leaves[fr.leaf].MAC {
				c.recordCopy(apps.KeyOf(msg.Key0, msg.Key1), fr.leaf)
				delete(c.pending, msg.Seq)
			} else {
				c.fill(fr, msg.Seq, msg.Key0, msg.Key1, f.Active.Args[0])
			}
			if c.OnResponse != nil {
				c.OnResponse(fr.leaf, msg.Seq, f.Active.Args[0], true)
			}
			return
		}
		// A KVResp: the server echoes the key, so it answers a pending GET or
		// acknowledges the commit of the key's write in flight.
		msg, ok := apps.ReplyKV(f)
		if !ok || msg.Op != apps.KVResp {
			return
		}
		if c.fill(fr, msg.Seq, msg.Key0, msg.Key1, msg.Value) {
			c.Misses++
			if c.OnResponse != nil {
				c.OnResponse(fr.leaf, msg.Seq, msg.Value, false)
			}
			return
		}
		key := apps.KeyOf(msg.Key0, msg.Key1)
		if w := c.writing[key]; w != nil && w.seq == msg.Seq {
			w.phase = acked
			c.WriteAcks++
			delete(c.writing, key)
			c.settleHome(w.leaf, w.k0, w.k1)
			if w.next != nil {
				c.step(w.next)
			}
			if c.OnWriteAck != nil {
				c.OnWriteAck(w.leaf, msg.Seq, msg.Value)
			}
			// Recycle the record under a new gen: retries still armed for it are stale.
			*w = write{c: c, gen: (w.gen + 1) % (1 << (64 - retryGenShift)), invals: w.invals[:0]}
			c.free = append(c.free, w)
		}
	}
}

// settleHome decides, at a write's linearization point, whether the home
// replica provably holds the write. The acknowledged commit capsule executed
// at every device on its path — if that path crossed the home, the home is
// current. If the path bypassed the home (rerouted around a sick link, or
// the home was drained), nothing confirmable installed there, and whatever
// the home holds for the key may predate this write — an unacknowledged
// install from updateHome is not proof, since a lossy-but-not-yet-unhealthy
// link eats capsules silently. In that case the key's bucket is evicted from
// the home through the control plane: a forced miss the server refills,
// never a stale hit. A crashed home controller cannot evict, so the key
// stays marked home-stale and the recovery scrub (failover.go) covers it.
func (c *CoherentCache) settleHome(leaf int, k0, k1 uint32) {
	key := apps.KeyOf(k0, k1)
	home := c.fc.F.Spines[c.home]
	onPath := c.fc.F.CurrentSpineFor(leaf, c.srvMAC) == home &&
		!(c.health != nil && c.health.LinkDown(leaf, c.home)) &&
		!c.fc.F.Drained(c.home)
	if onPath {
		delete(c.homeStale, key)
		return
	}
	if addr, ok := c.bucket(k0, k1); ok {
		if _, ok := home.Ctrl.ScrubWord(c.set.FID, addr); ok {
			delete(c.homeStale, key)
			c.HomeEvictions++
			return
		}
	}
	c.homeStale[key] = true
}

// fill ends the pending GET seq, answered with value from beyond the reading
// leaf, and installs the value at that leaf if the fill rule (package
// comment) allows. The install hairpins on the frontend's own host link, so it
// is FIFO-ordered against this frontend's later invalidations and never
// touches the home, which only commit traffic populates (settleHome). It
// reports whether seq was a pending GET.
func (c *CoherentCache) fill(fr *front, seq, k0, k1, value uint32) bool {
	p, ok := c.pending[seq]
	delete(c.pending, seq)
	addr, fits := c.bucket(k0, k1)
	switch {
	case !ok || !fits:
	case p.wgen != c.wgens[apps.KeyOf(k0, k1)]:
		c.FillsSuppressed++
	case fr.cl.SendProgram("populate-fwd", [4]uint32{k0, k1, addr, value}, packet.FlagPreload, nil, fr.cl.MAC()) == nil:
		c.Fills++
		c.recordCopy(apps.KeyOf(k0, k1), fr.leaf)
	}
	return ok
}

// HitRate returns hits / (hits + misses).
func (c *CoherentCache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
