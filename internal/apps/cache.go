package apps

import (
	"net/netip"

	"activermt/internal/alloc"
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
)

// The cache's three program templates share one memory-access skeleton
// (accesses at instruction indices 1, 4, 8; RTS at 7) so that every
// template synthesizes against the same mutant and therefore the same
// stages. The bucket layout follows Section 3.4: an object occupies three
// consecutive addresses — key half 0 in the first access's stage at
// address a, key half 1 in the second stage at a+1 (MEM_READ advances
// MAR), and the 4-byte value in the third stage at a+2 — which is why the
// cache requests one alignment group: all three stages need identical
// regions for a single MAR to address the bucket.

// cacheQueryProg is the paper's Listing 1 verbatim.
var cacheQueryProg = isa.MustAssemble("cache-query", `
.arg ADDR 2
MAR_LOAD $ADDR      // locate bucket
MEM_READ            // first 4 bytes
MBR_EQUALS_DATA_1   // compare bytes
CRET                // partial match?
MEM_READ            // next 4 bytes
MBR_EQUALS_DATA_2   // compare bytes
CRET                // full match?
RTS                 // create reply
MEM_READ            // read the value
MBR_STORE           // write to packet
RETURN              // fin.
`)

// cachePopulateProg writes one object into its bucket (the data-plane cache
// population primitive of Sections 3.4/4.3). It relies on the preload
// optimization (Appendix C): MBR arrives holding data[0] (key half 0) so
// the first write needs no extra load.
var cachePopulateProg = isa.MustAssemble("cache-populate", `
.arg ADDR 2
MAR_LOAD $ADDR      // locate bucket
MEM_WRITE           // key half 0 (MBR preloaded)
MBR_LOAD 1          // key half 1
NOP
MEM_WRITE           // store it at a+1
MBR_LOAD 3          // the value
NOP
RTS                 // acknowledge the write
MEM_WRITE           // store value at a+2
RETURN
`)

// cachePopulateFwdProg is the populate program with the RTS acknowledgment
// replaced by a NOP, preserving the shared memory-access skeleton (accesses
// at 1, 4, 8). Without the RTS the capsule is forwarded toward its
// destination after executing, so in a multi-switch fabric one write
// capsule applies the object at EVERY on-path replica and terminates at the
// addressed host — the write-update / invalidation primitive of the
// fabric's cross-switch coherence protocol (internal/fabric).
var cachePopulateFwdProg = isa.MustAssemble("cache-populate-fwd", `
.arg ADDR 2
MAR_LOAD $ADDR      // locate bucket
MEM_WRITE           // key half 0 (MBR preloaded)
MBR_LOAD 1          // key half 1
NOP
MEM_WRITE           // store it at a+1
MBR_LOAD 3          // the value
NOP
NOP                 // no RTS: keep forwarding to the next on-path device
MEM_WRITE           // store value at a+2
RETURN
`)

// cacheReadbackProg reads a raw bucket back to the client (the Appendix C
// memory-READ pattern applied to the cache layout), used for state
// extraction during reallocation.
var cacheReadbackProg = isa.MustAssemble("cache-readback", `
.arg ADDR 2
MAR_LOAD $ADDR
MEM_READ            // key half 0
MBR_STORE 0
NOP
MEM_READ            // key half 1
MBR_STORE 1
NOP
RTS
MEM_READ            // value
MBR_STORE 3
RETURN
`)

// Cache is the full-featured in-network cache service (Section 6.3): the
// query program accelerates GETs, population runs over the data plane, and
// the reallocation handler re-populates after the switch moves or shrinks
// the region.
type Cache struct {
	Client *client.Client

	srvMAC packet.MAC
	selfIP netip.Addr
	srvIP  netip.Addr

	// hot is the client-side object table: what we'd like cached,
	// most-frequent first. The switch holds the prefix that fits.
	hot []KVMsg

	// Stats.
	Hits, Misses, PopAcks uint64
	seq                   uint32
	payload               []byte // Get's datagram scratch; the client copies from it

	// OnResponse fires for every completed GET: hit tells whether the
	// switch served it.
	OnResponse func(seq uint32, value uint32, hit bool)

	repopulateOnResume bool
}

// CacheService builds the service definition for a cache instance.
func CacheService(c *Cache) *client.Service {
	g := 1
	return &client.Service{
		Name: "cache",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main":     cacheQueryProg,
			"populate": cachePopulateProg,
			"readback": cacheReadbackProg,
		},
		Specs: []compiler.AccessSpec{
			{AlignGroup: g}, {AlignGroup: g}, {AlignGroup: g},
		},
		Elastic: true,
		OnOperational: func(cl *client.Client) {
			if c.repopulateOnResume {
				c.repopulateOnResume = false
				c.Populate()
			}
		},
		OnReallocate: func(cl *client.Client, oldPl, newPl *alloc.Placement, done func()) {
			// The client synthesized this cache's contents, so extraction
			// is a no-op (Section 6.3 populates "based on known request
			// patterns"); re-populate once the new region is live.
			c.repopulateOnResume = true
			done()
		},
		OnFailed: func(cl *client.Client) {},
	}
}

// CoherentCacheService builds the service definition for one member of the
// fabric's replicated coherent cache (internal/fabric): the single-switch
// templates plus the forwarding populate used for cross-switch write-update
// and invalidation capsules. All templates share the access skeleton, so
// every replica synthesizes against the same mutant.
func CoherentCacheService() *client.Service {
	g := 1
	return &client.Service{
		Name: "coherent-cache",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main":         cacheQueryProg,
			"populate":     cachePopulateProg,
			"populate-fwd": cachePopulateFwdProg,
			"readback":     cacheReadbackProg,
		},
		Specs: []compiler.AccessSpec{
			{AlignGroup: g}, {AlignGroup: g}, {AlignGroup: g},
		},
		Elastic: true,
	}
}

// NewCache wires a cache app; call client.New with CacheService(cache) and
// then cache.Bind.
func NewCache(srvMAC packet.MAC, selfIP, srvIP netip.Addr) *Cache {
	return &Cache{srvMAC: srvMAC, selfIP: selfIP, srvIP: srvIP}
}

// Bind attaches the shim client (two-phase init: the service definition
// needs the Cache and the Cache needs the client).
func (c *Cache) Bind(cl *client.Client) {
	c.Client = cl
	cl.Handler = c.handle
}

// KeyHash is the hash every cache client places keys with: FNV-1a over the
// key's eight bytes, k0 then k1, each big-endian (hash/fnv's New32a over
// the same bytes, without the allocation).
func KeyHash(k0, k1 uint32) uint32 {
	h := uint32(2166136261)
	for _, w := range [2]uint32{k0, k1} {
		for shift := 24; shift >= 0; shift -= 8 {
			h = (h ^ w>>shift&0xff) * 16777619
		}
	}
	return h
}

// Buckets returns how many cache buckets a placement's region holds: its
// width minus the two-word bucket overhang, 0 without a usable region.
func Buckets(pl *alloc.Placement) int {
	if pl == nil || len(pl.Accesses) == 0 {
		return 0
	}
	w := int(pl.Accesses[0].Range.Hi - pl.Accesses[0].Range.Lo)
	if w < 3 {
		return 0
	}
	return w - 2
}

// Bucket computes the client-side hash placement of a key in a placement's
// region: the address translation the paper performs at the client
// (Section 3.2). Every cache client — Cache, fabric.CoherentCache — lays
// keys out with it.
func Bucket(pl *alloc.Placement, k0, k1 uint32) (uint32, bool) {
	n := Buckets(pl)
	if n == 0 {
		return 0, false
	}
	return pl.Accesses[0].Range.Lo + KeyHash(k0, k1)%uint32(n), true
}

// Capacity returns the number of buckets the current allocation holds.
func (c *Cache) Capacity() int { return Buckets(c.Client.Placement()) }

// SetHotObjects replaces the client-side object table (most frequent
// first).
func (c *Cache) SetHotObjects(objs []KVMsg) {
	c.hot = append(c.hot[:0], objs...)
}

// Populate writes as many hot objects as fit into switch memory, last
// writer wins on bucket collisions — so iterate least-frequent first and
// finish with the hottest.
func (c *Cache) Populate() {
	if !c.Client.Operational() {
		c.repopulateOnResume = true
		return
	}
	n := len(c.hot)
	if cap := c.Capacity(); n > cap {
		n = cap
	}
	for i := n - 1; i >= 0; i-- { // least frequent first, hottest last
		o := c.hot[i]
		addr, ok := Bucket(c.Client.Placement(), o.Key0, o.Key1)
		if !ok {
			return
		}
		_ = c.Client.SendProgram("populate",
			[4]uint32{o.Key0, o.Key1, addr, o.Value},
			packet.FlagPreload, nil, c.Client.MAC()) // self-addressed: the RTS ack returns here
	}
}

// Get issues one application-level GET, activated with the query program
// when operational. Returns the sequence number.
func (c *Cache) Get(k0, k1 uint32) uint32 {
	c.seq++
	msg := KVMsg{Op: KVGet, Key0: k0, Key1: k1, Seq: c.seq}
	c.payload = BuildKV(c.payload[:0], c.selfIP, c.srvIP, 40000, KVPort, &msg)
	addr, ok := Bucket(c.Client.Placement(), k0, k1)
	if !ok {
		_ = c.Client.SendPlain(c.payload, c.srvMAC)
		return c.seq
	}
	_ = c.Client.SendProgram("main", [4]uint32{k0, k1, addr, 0}, 0, c.payload, c.srvMAC)
	return c.seq
}

// handle processes replies: switch RTS replies are hits (or populate acks);
// plain server responses are misses.
func (c *Cache) handle(cl *client.Client, f *packet.Frame) {
	if f.Active != nil {
		h := f.Active.Header
		if h.Flags&packet.FlagRTS == 0 {
			return
		}
		if h.Flags&packet.FlagPreload != 0 {
			c.PopAcks++
			return
		}
		// Cache hit: the value rode back in data[0] (Listing 1 line 10).
		c.Hits++
		if c.OnResponse != nil {
			msg, _ := ReplyKV(f)
			c.OnResponse(msg.Seq, f.Active.Args[0], true)
		}
		return
	}
	msg, ok := ReplyKV(f)
	if !ok || msg.Op != KVResp {
		return
	}
	c.Misses++
	if c.OnResponse != nil {
		c.OnResponse(msg.Seq, msg.Value, false)
	}
}

// HitRate returns hits / (hits + misses).
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// ResetStats zeroes the hit/miss counters (per-window measurement).
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }
