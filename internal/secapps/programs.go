// Package secapps implements the security and measurement exemplars the
// ROADMAP's scenario-diversity item calls for: a SYN-flood detector and a
// per-tenant rate limiter ("Programmable Data Planes for Network Security"),
// and a probabilistic-recirculation heavy hitter (Ben Basat et al.) that
// trades recirculation budget for accuracy. Each app is an assembled ISA
// program plus a client-side driver and a seeded traffic generator with
// ground truth, wired into the soak harness and activesim scenarios.
package secapps

import (
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
)

// sfSynProg counts half-open connections per source: a SYN increments the
// source's hash-indexed counter, and once the count exceeds the threshold
// carried in data[2] the source's identifier is recorded in a second
// hash-folded alarm table the control plane scans. There is no decrement
// opcode, so the companion ACK program resets the counter instead — the
// counter therefore holds "SYNs since the last completed handshake", which
// is exactly the half-open backlog for well-behaved sources and grows
// without bound for flooders (they never ACK).
var sfSynProg = isa.MustAssemble("sf-syn", `
MBR_LOAD 0          // source identifier
COPY_HASHDATA_MBR 0
MBR_LOAD 1          // keeps the ACK template's skeleton (unused here)
HASH                // per-source counter slot (stage-3 seed, shared with sf-ack)
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT       // half-open count++
COPY_MBR2_MBR       // save the count
MBR_LOAD 2          // threshold
MIN                 // MBR = min(threshold, count)
MBR_EQUALS_MBR2     // zero iff count <= threshold
CRETI               // below threshold: forward and finish
ADDR_MASK           // fold into the alarm table
ADDR_OFFSET
MBR_LOAD 0
MEM_WRITE           // alarm fingerprint = source identifier
RETURN
`)

// sfAckProg completes a handshake: it writes 0 (data[1] by convention) over
// the source's half-open counter. The HASH sits at the same instruction
// index as in sfSynProg, so both templates address the same slot; the
// trailing MEM_READ exists only to keep the two access skeletons identical
// (one mutant serves both programs).
var sfAckProg = isa.MustAssemble("sf-ack", `
MBR_LOAD 0          // source identifier
COPY_HASHDATA_MBR 0
MBR_LOAD 1          // reset value (0 by convention)
HASH                // same index as sf-syn -> same slot
ADDR_MASK
ADDR_OFFSET
MEM_WRITE           // half-open count = 0 (handshake completed)
NOP
NOP
NOP
NOP
NOP
ADDR_MASK
ADDR_OFFSET
NOP
MEM_READ            // skeleton parity with sf-syn's alarm write
RETURN
`)

// SynCounterBlocks sizes the per-source half-open counter row: 16 one-KB
// blocks = 4096 counters, keeping hash collisions between sources rare at
// the generator's population sizes.
const SynCounterBlocks = 16

// SynAlarmBlocks sizes the alarm fingerprint table.
const SynAlarmBlocks = 1

// rlCheckProg admits or drops one packet against a per-bucket spend counter:
// the bucket (hashed from data[0]) is incremented, and if the new spend
// exceeds the limit in data[2] the packet is dropped in the switch. The
// control plane opens a new window by resetting the counter with
// rlRefillProg, so the pair forms a windowed token bucket without switch
// timers.
var rlCheckProg = isa.MustAssemble("rl-check", `
MBR_LOAD 0          // bucket (tenant) identifier
COPY_HASHDATA_MBR 0
MBR_LOAD 1          // keeps the refill template's skeleton (unused here)
HASH                // bucket slot (stage-3 seed, shared with rl-refill)
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT       // window spend++
COPY_MBR2_MBR       // save the spend
MBR_LOAD 2          // window limit
MIN                 // MBR = min(limit, spend)
MBR_EQUALS_MBR2     // zero iff spend <= limit
CRETI               // within budget: forward
DROP                // over budget: drop in the switch
RETURN
`)

// rlRefillProg opens a new window: it writes 0 (data[1] by convention) over
// the bucket's spend counter. HASH index matches rlCheckProg.
var rlRefillProg = isa.MustAssemble("rl-refill", `
MBR_LOAD 0          // bucket (tenant) identifier
COPY_HASHDATA_MBR 0
MBR_LOAD 1          // reset value (0 by convention)
HASH                // same index as rl-check -> same slot
ADDR_MASK
ADDR_OFFSET
MEM_WRITE           // window spend = 0
RETURN
`)

// RLBucketBlocks sizes the bucket table: 4 one-KB blocks = 1024 buckets.
const RLBucketBlocks = 4

// hxSketchProg is the single-pass arm of the probabilistic-recirculation
// heavy hitter: it bumps a hash-indexed sketch counter and, once the count
// crosses the candidate threshold in data[2], records the key's fingerprint
// in a candidate table. It never recirculates — promotion to exact counting
// is the expensive (multi-pass) hxClaimProg, issued by the driver only for
// sampled candidates and only while recirculation budget remains.
var hxSketchProg = isa.MustAssemble("hx-sketch", `
MBR_LOAD 0          // key
COPY_HASHDATA_MBR 0
HASH                // sketch row slot
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT       // sketch count++
COPY_MBR2_MBR
MBR_LOAD 2          // candidate threshold
MIN
MBR_EQUALS_MBR2     // zero iff count <= threshold
CRETI               // cold: forward and finish
ADDR_MASK
ADDR_OFFSET
MBR_LOAD 0
MEM_WRITE           // candidate fingerprint = key
RETURN
`)

// hxClaimProg is the two-pass arm: pass 1 carries the key across the
// pipeline, the recirculation crosses into pass 2, and a fresh hash
// (stage-0 seed of the second pass) indexes an exact per-key counter. At 25
// instructions on a 20-stage pipeline it consumes exactly one extra pass,
// so every claim costs one token from the FID's recirculation budget —
// the legitimate consumer the guard's recirc ledger was built to police.
//
// The program deliberately has a SINGLE memory access. A second (pass-1)
// access would need its own translate entry, and on a wrapped placement the
// pass-2 access's translate window folds back over the pass-1 ADDR stages
// and overwrites that entry with the wrong mask — the claimed set is instead
// tracked client-side from the sketch's candidate table, which is cheaper
// anyway (no switch memory for it).
var hxClaimProg = isa.MustAssemble("hx-claim", `
MBR_LOAD 0          // key
COPY_HASHDATA_MBR 0
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
NOP
HASH                // pass-2 seed -> exact-counter slot
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT       // exact count++
RETURN
`)

// HXRowBlocks sizes the sketch row; HXCandBlocks the candidate table.
const (
	HXRowBlocks  = 8
	HXCandBlocks = 1
)

// HXExactBlocks sizes the claim arm's exact counter row.
const HXExactBlocks = 4

// SynFloodService builds the SYN-flood detector's service definition: the
// SYN and ACK templates share one access skeleton (counter @6, alarm @15).
func SynFloodService(d *SynDetector) *client.Service {
	return &client.Service{
		Name: "synflood",
		Main: "syn",
		Templates: map[string]*isa.Program{
			"syn": sfSynProg,
			"ack": sfAckProg,
		},
		Specs: []compiler.AccessSpec{
			{Demand: SynCounterBlocks},
			{Demand: SynAlarmBlocks},
		},
		Elastic: false,
	}
}

// RateLimitService builds the rate limiter's service definition: check and
// refill share one access skeleton (bucket @6).
func RateLimitService(d *RateLimiter) *client.Service {
	return &client.Service{
		Name: "ratelimit",
		Main: "check",
		Templates: map[string]*isa.Program{
			"check":  rlCheckProg,
			"refill": rlRefillProg,
		},
		Specs: []compiler.AccessSpec{
			{Demand: RLBucketBlocks},
		},
		Elastic: false,
	}
}

// HXSketchService builds the heavy hitter's single-pass sketch service.
func HXSketchService() *client.Service {
	return &client.Service{
		Name: "hx-sketch",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main": hxSketchProg,
		},
		Specs: []compiler.AccessSpec{
			{Demand: HXRowBlocks},
			{Demand: HXCandBlocks},
		},
		Elastic: false,
	}
}

// HXClaimService builds the heavy hitter's two-pass claim service (its own
// FID: a service's templates must agree on pass count, and the claim arm is
// the only recirculating program).
func HXClaimService() *client.Service {
	return &client.Service{
		Name: "hx-claim",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main": hxClaimProg,
		},
		Specs: []compiler.AccessSpec{
			{Demand: HXExactBlocks},
		},
		Elastic: false,
	}
}

// Programs returns every secapps program template, for harnesses that
// iterate all registered exemplars (the plan-vs-reference
// differential suite).
func Programs() []*isa.Program {
	return []*isa.Program{sfSynProg, sfAckProg, rlCheckProg, rlRefillProg, hxSketchProg, hxClaimProg}
}
