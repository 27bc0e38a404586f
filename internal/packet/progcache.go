package packet

import (
	"fmt"

	"activermt/internal/isa"
	"activermt/internal/telemetry"
)

// This file implements the decoded-program cache: the ISA decode and the
// structural validation of a program capsule run once per distinct program
// instead of once per packet. Both depend only on the program's instruction
// bytes, so the key is those bytes, EOF included: every tenant and every grant
// epoch carrying the same bytes shares one entry. What separates tenants is
// the switch's per-FID tables, which the runtime folds in per (program, FID)
// plan, not the program. The cached isa.Program is immutable and shared: the
// execution path copies its instructions into the PHV and never writes
// through the pointer.
//
// Canonical-pointer contract: for as long as an entry stays cached, every
// decode of the same bytes returns the SAME *isa.Program pointer. Downstream
// layers may therefore use the pointer as the program's identity — the
// runtime keys compiled plans by (pointer, FID) (see
// internal/runtime/specialize.go), so a plan lookup is one map probe instead
// of a re-hash of the program bytes. A flush only breaks the mapping for
// *future* decodes: a new pointer simply compiles to a new plan. Nothing may
// mutate a cached program through the pointer.

// Program validity states recorded on a decoded Active by the caching
// decoder, consumed by the ingress guard (parse-once: the guard skips its
// own Validate walk when the state is already known).
const (
	ProgUnknown uint8 = iota // not yet validated (non-cached decode path)
	ProgValid                // structural validation passed
	ProgInvalid              // structural validation failed
)

type cacheEntry struct {
	prog  *isa.Program
	valid bool // Validate() == nil, memoized
}

// ProgCache is a bounded decoded-program cache. Like the switch whose ingress
// it serves, it is driven by one goroutine and takes no lock.
type ProgCache struct {
	m map[string]cacheEntry // program wire bytes through EOF -> entry

	// Counters; Stats() reads them, and so does a registry snapshot
	// (AttachTelemetry).
	hits, misses, invalidations uint64
}

// progCacheSize bounds the cache: large enough for every program a busy
// switch serves, small enough that a tenant spraying distinct programs cannot
// grow it. When full, the cache is flushed wholesale — entries are tiny and
// rebuilt in one decode each, so eviction bookkeeping isn't worth it.
const progCacheSize = 1024

// NewProgCache returns an empty cache.
func NewProgCache() *ProgCache {
	return &ProgCache{m: make(map[string]cacheEntry)}
}

// AttachTelemetry registers the cache counters plus a derived hit-ratio
// gauge, each read through Stats.
func (c *ProgCache) AttachTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("activermt_progcache_hits_total", "Program-capsule decodes served from the cache.",
		func() uint64 { h, _, _ := c.Stats(); return h })
	reg.CounterFunc("activermt_progcache_misses_total", "Program-capsule decodes that ran the full ISA decode.",
		func() uint64 { _, m, _ := c.Stats(); return m })
	reg.CounterFunc("activermt_progcache_invalidations_total", "Cached programs dropped by a full-cache flush.",
		func() uint64 { _, _, inv := c.Stats(); return inv })
	reg.Gauge("activermt_progcache_hit_ratio", "Fraction of program decodes served from the cache.", func() float64 {
		h, m, _ := c.Stats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
}

// Stats returns (hits, misses, invalidations); invalidations counts the
// entries full-cache flushes dropped.
func (c *ProgCache) Stats() (hits, misses, invalidations uint64) {
	return c.hits, c.misses, c.invalidations
}

// Len returns the number of cached programs.
func (c *ProgCache) Len() int { return len(c.m) }

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
func (c *ProgCache) lookupOrDecode(raw []byte) (*isa.Program, int, uint8, error) {
	n, ok := progWireLen(raw)
	if !ok {
		return nil, 0, ProgUnknown, fmt.Errorf("isa: program truncated at byte %d (no EOF)", len(raw)-len(raw)%isa.WireSize)
	}
	// The lookup's string conversion does not allocate; an insert copies the
	// bytes once.
	e, ok := c.m[string(raw[:n])]
	if ok {
		c.hits++
	} else {
		c.misses++
		prog, _, err := isa.DecodeProgram(raw)
		if err != nil {
			return nil, 0, ProgUnknown, err
		}
		e = cacheEntry{prog: prog, valid: prog.Validate() == nil}
		if len(c.m) >= progCacheSize {
			c.invalidations += uint64(len(c.m))
			clear(c.m)
		}
		c.m[string(raw[:n])] = e
	}
	state := ProgInvalid
	if e.valid {
		state = ProgValid
	}
	return e.prog, n, state, nil
}

// DecodeInto parses an active packet from b into the caller's Active,
// consulting the cache for program capsules. It is the allocation-free
// ingress decode for the steady state: on a cache hit nothing is copied or
// allocated — a.Program aliases the immutable cached program and a.Payload
// aliases b, so the Active is only valid while b is.
//
// An allocation request or response decodes into a.AllocReq or a.AllocResp
// when the caller points it at scratch, and allocates one otherwise.
func DecodeInto(b []byte, a *Active, c *ProgCache) error {
	return decodeActive(b, a, c, false)
}

// DecodeFrameCached parses a full frame like DecodeFrame, but decodes
// active program capsules through the cache (one ISA decode + validation
// per distinct program) and stamps ValidState for the ingress guard. The
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
