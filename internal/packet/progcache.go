package packet

import (
	"fmt"
	"hash/crc32"

	"activermt/internal/isa"
	"activermt/internal/telemetry"
)

// This file implements the decoded-program cache: the ISA decode and the
// structural validation of a program capsule run once per *program version*
// instead of once per packet. A version is keyed by (FID, grant epoch,
// program length, CRC32 of the raw program bytes) — the same epoch that
// authenticates grants drives invalidation, so a reallocation that bumps a
// tenant's epoch automatically orphans every stale cache entry. The cached
// isa.Program is immutable and shared: the execution path copies its
// instructions into the PHV and never writes through the pointer.
//
// Canonical-pointer contract: for as long as a version stays cached, every
// decode of the same (FID, epoch, len, CRC32) returns the SAME *isa.Program
// pointer. Downstream layers may therefore use the pointer as the version's
// identity — the runtime's specialization layer keys compiled plans by it
// (see internal/runtime/specialize.go), which is what lets a plan lookup be
// one map probe instead of a re-hash of the program bytes. Eviction (cache
// flush or Invalidate) only breaks the mapping for *future* decodes: a new
// pointer simply compiles to a new plan, while the old plan is dropped at the
// next commit. Nothing may mutate a cached program through the pointer.
//
// A tenant can only collide CRC32 within its own (FID, epoch) keyspace, so
// a crafted collision can corrupt nobody's programs but its own.

// Program validity states recorded on a decoded Active by the caching
// decoder, consumed by the ingress guard (parse-once: the guard skips its
// own Validate walk when the state is already known).
const (
	ProgUnknown uint8 = iota // not yet validated (non-cached decode path)
	ProgValid                // structural validation passed
	ProgInvalid              // structural validation failed
)

// ProgKey identifies one cached program version.
type ProgKey struct {
	FID   uint16
	Epoch uint8
	Len   uint16 // wire length of the program bytes, EOF included
	Hash  uint32 // CRC32 of the raw program bytes
}

type cacheEntry struct {
	prog  *isa.Program
	valid bool // Validate() == nil, memoized
}

// ProgCache is a bounded decoded-program cache. Like the switch whose ingress
// it serves, it is driven by one goroutine and takes no lock.
type ProgCache struct {
	max int
	m   map[ProgKey]*cacheEntry

	// Counters; Stats() reads them, and so does a registry snapshot
	// (AttachTelemetry).
	hits, misses, invalidations uint64
}

// DefaultProgCacheSize bounds the cache: large enough for every (tenant,
// epoch, mutant) triple a busy switch serves, small enough to cap memory.
const DefaultProgCacheSize = 1024

// NewProgCache returns a cache bounded to max entries (<=0 uses the
// default). When full, the cache is flushed wholesale — entries are tiny
// and rebuilt in one decode each, so eviction bookkeeping isn't worth it.
func NewProgCache(max int) *ProgCache {
	if max <= 0 {
		max = DefaultProgCacheSize
	}
	return &ProgCache{max: max, m: make(map[ProgKey]*cacheEntry)}
}

// AttachTelemetry registers the cache counters plus a derived hit-ratio
// gauge, each read through Stats.
func (c *ProgCache) AttachTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("activermt_progcache_hits_total", "Program-capsule decodes served from the cache.",
		func() uint64 { h, _, _ := c.Stats(); return h })
	reg.CounterFunc("activermt_progcache_misses_total", "Program-capsule decodes that ran the full ISA decode.",
		func() uint64 { _, m, _ := c.Stats(); return m })
	reg.CounterFunc("activermt_progcache_invalidations_total", "Cached program versions dropped by grant-change invalidation.",
		func() uint64 { _, _, inv := c.Stats(); return inv })
	reg.Gauge("activermt_progcache_hit_ratio", "Fraction of program decodes served from the cache.", func() float64 {
		h, m, _ := c.Stats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
}

// Stats returns (hits, misses, invalidations).
func (c *ProgCache) Stats() (hits, misses, invalidations uint64) {
	return c.hits, c.misses, c.invalidations
}

// Len returns the number of cached program versions.
func (c *ProgCache) Len() int { return len(c.m) }

// Contains reports whether a program version is currently cached — used by
// tests and operators to check invalidation without touching hit/miss
// counters or side-effecting a decode.
func (c *ProgCache) Contains(k ProgKey) bool {
	_, ok := c.m[k]
	return ok
}

// Invalidate drops every cached version belonging to fid. Controllers call
// it on grant commits and evictions; epoch keying already makes stale
// entries unreachable, so this is memory hygiene, not correctness.
func (c *ProgCache) Invalidate(fid uint16) {
	for k := range c.m {
		if k.FID == fid {
			delete(c.m, k)
			c.invalidations++
		}
	}
}

// progWireLen scans the raw program bytes for the EOF header and returns
// the wire length including it. It does not validate opcodes — the decode
// that follows a cache miss does.
func progWireLen(b []byte) (int, bool) {
	for off := 0; off+isa.WireSize <= len(b); off += isa.WireSize {
		if b[off] == byte(isa.OpEOF) {
			return off + isa.WireSize, true
		}
	}
	return 0, false
}

// lookupOrDecode returns the decoded program for the raw bytes, its wire
// length, and its memoized validity; on a miss it decodes, validates once,
// and inserts.
func (c *ProgCache) lookupOrDecode(fid uint16, epoch uint8, raw []byte) (*isa.Program, int, uint8, error) {
	n, ok := progWireLen(raw)
	if !ok {
		return nil, 0, ProgUnknown, fmt.Errorf("isa: program truncated at byte %d (no EOF)", len(raw)-len(raw)%isa.WireSize)
	}
	key := ProgKey{FID: fid, Epoch: epoch, Len: uint16(n), Hash: crc32.ChecksumIEEE(raw[:n])}
	if e, ok := c.m[key]; ok {
		c.hits++
		state := ProgInvalid
		if e.valid {
			state = ProgValid
		}
		return e.prog, n, state, nil
	}
	c.misses++

	prog, dn, err := isa.DecodeProgram(raw)
	if err != nil {
		return nil, 0, ProgUnknown, err
	}
	e := &cacheEntry{prog: prog, valid: prog.Validate() == nil}
	if len(c.m) >= c.max {
		c.m = make(map[ProgKey]*cacheEntry)
	}
	c.m[key] = e
	state := ProgInvalid
	if e.valid {
		state = ProgValid
	}
	return prog, dn, state, nil
}

// DecodeInto parses an active packet from b into the caller's Active,
// consulting the cache for program capsules. It is the allocation-free
// ingress decode for the steady state: on a cache hit nothing is copied or
// allocated — a.Program aliases the immutable cached program and a.Payload
// aliases b, so the Active is only valid while b is.
//
// Control traffic (allocation requests/responses) still allocates its
// decoded structures; it is not on the packet hot path.
func DecodeInto(b []byte, a *Active, c *ProgCache) error {
	return decodeActive(b, a, c, false)
}

// DecodeCached is DecodeInto with an allocated Active, for callers that
// retain the result (control paths, tests).
func DecodeCached(b []byte, c *ProgCache) (*Active, error) {
	a := &Active{}
	if err := DecodeInto(b, a, c); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeFrameCached parses a full frame like DecodeFrame, but decodes
// active program capsules through the cache (one ISA decode + validation
// per program version) and stamps ValidState for the ingress guard. The
// decoded Active's Payload aliases b.
func DecodeFrameCached(b []byte, c *ProgCache) (*Frame, error) {
	eth, rest, err := DecodeEth(b)
	if err != nil {
		return nil, err
	}
	f := &Frame{Eth: eth}
	if eth.EtherType == EtherTypeActive {
		a := &Active{}
		if err := DecodeInto(rest, a, c); err != nil {
			return nil, err
		}
		f.Active = a
		f.Inner = a.Payload
		return f, nil
	}
	f.Inner = append([]byte(nil), rest...)
	return f, nil
}
