package secapps

import (
	"math/rand"
	"sort"

	"activermt/internal/client"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
	"activermt/internal/workload"
)

// RecircHH drives the probabilistic-recirculation heavy hitter (after Ben
// Basat et al.: pay recirculation bandwidth only for packets that matter).
// Every key streams through the one-pass sketch arm; keys whose sketch
// count crosses the candidate threshold surface in a candidate table the
// driver harvests. Harvested keys are then *sampled* into the two-pass
// claim arm — one recirculation each — which maintains exact per-key
// counters, so accuracy is bought with recirculation budget at a rate the
// driver controls (SampleEvery) and caps (BudgetFn): when the remaining
// budget is short, claims are deferred to the next window instead of
// tripping the guard's recirc-throttled ledger.
type RecircHH struct {
	// Sketch runs the one-pass arm, Claim the two-pass arm (its own FID:
	// pass count is a property of the service).
	Sketch *client.Client
	Claim  *client.Client

	// CandThreshold is the sketch count above which a key becomes a
	// candidate, carried in every sketch capsule.
	CandThreshold uint32

	// SampleEvery samples 1-in-N occurrences of a claimed key into the
	// claim arm; exact counts are scaled back by the same factor.
	SampleEvery int

	// BudgetFn reports the claim FID's remaining recirculation tokens
	// (runtime.RecircBudgetRemaining); nil disables backoff.
	BudgetFn func() int

	// SnapshotFn reads a FID's region in a physical stage via the switch
	// control plane.
	SnapshotFn func(fid uint16, physStage int) ([]uint32, error)

	// Observed records activated keys for fingerprint resolution.
	Observed map[uint32]bool

	// claimed marks keys promoted to exact counting.
	claimed map[uint32]bool

	Updates, Claims, ClaimsDeferred uint64

	// RecircSpent tallies the extra passes the claim capsules consumed.
	RecircSpent uint64

	rng *rand.Rand
}

// NewRecircHH returns a driver with seeded claim sampling.
func NewRecircHH(seed int64, candThreshold uint32, sampleEvery int) *RecircHH {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &RecircHH{
		CandThreshold: candThreshold,
		SampleEvery:   sampleEvery,
		Observed:      make(map[uint32]bool),
		claimed:       make(map[uint32]bool),
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// Bind attaches the two shim clients.
func (h *RecircHH) Bind(sketch, claim *client.Client) {
	h.Sketch, h.Claim = sketch, claim
}

// WireTelemetry registers the heavy hitter's spend counters, read from
// Claims, ClaimsDeferred and RecircSpent.
func (h *RecircHH) WireTelemetry(reg *telemetry.Registry) {
	reg.Counter("activermt_secapps_hx_claims_total", "Heavy-hitter claim capsules issued (each recirculates)", &h.Claims)
	reg.Counter("activermt_secapps_hx_claims_deferred_total", "Heavy-hitter claims deferred for lack of recirculation budget", &h.ClaimsDeferred)
	reg.Counter("activermt_secapps_hx_recircs_spent_total", "Extra pipeline passes spent by claim capsules", &h.RecircSpent)
}

// Compact program geometry the driver mirrors client-side: the sketch hashes
// at instruction 2; the claim arm's exact-counter hash sits at instruction
// 20 (the second pass's first stage) and, because mutant synthesis inserts
// NOPs at the MEM op itself, never moves under placement.
const (
	hxSketchHashIdx   = 2
	hxClaim2ndHashIdx = 20
	hxClaimSkeleton0  = 23
)

// ClaimExtraPasses returns the extra pipeline passes one synthesized claim
// capsule consumes (the per-claim recirculation price).
func (h *RecircHH) ClaimExtraPasses() int {
	pl := h.Claim.Placement()
	if pl == nil {
		return 0
	}
	// Mutant synthesis only ever inserts NOPs before accesses, so the
	// synthesized length is the template length plus the access's shift
	// from its compact position.
	n := h.Claim.Pipeline.NumStages
	synthLen := hxClaimProg.Len() + (pl.Accesses[0].Logical - hxClaimSkeleton0)
	return (synthLen - 1) / n
}

// Observe activates one key occurrence. Claimed keys are sampled into the
// claim arm while recirculation budget remains; everything else streams
// through the sketch.
func (h *RecircHH) Observe(key uint32, payload []byte, dst [6]byte) {
	h.Observed[key] = true
	h.Updates++
	if h.claimed[key] && h.rng.Intn(h.SampleEvery) == 0 {
		extra := h.ClaimExtraPasses()
		if h.BudgetFn == nil || h.BudgetFn() >= extra {
			h.Claims++
			h.RecircSpent += uint64(extra)
			_ = h.Claim.SendProgram("main", [4]uint32{key, 0, 0, 0}, 0, payload, dst)
			return
		}
		h.ClaimsDeferred++
		// Fall through to the sketch: the occurrence still counts there.
	}
	_ = h.Sketch.SendProgram("main", [4]uint32{key, 0, h.CandThreshold, 0}, 0, payload, dst)
}

// Harvest scans the candidate table and promotes new fingerprints to the
// claimed set; it returns how many keys were promoted.
func (h *RecircHH) Harvest() (int, error) {
	pl := h.Sketch.Placement()
	if pl == nil || h.SnapshotFn == nil {
		return 0, nil
	}
	words, err := h.SnapshotFn(h.Sketch.FID(), pl.Accesses[1].Physical)
	if err != nil {
		return 0, err
	}
	promoted := 0
	for _, fp := range words {
		if fp == 0 || h.claimed[fp] || !h.Observed[fp] {
			continue
		}
		h.claimed[fp] = true
		promoted++
	}
	return promoted, nil
}

// ClaimedKeys returns the promoted key set.
func (h *RecircHH) ClaimedKeys() []uint32 {
	out := make([]uint32, 0, len(h.claimed))
	for k := range h.claimed {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KeyCount is one heavy-hitter estimate.
type KeyCount struct {
	Key uint32
	// Count is the sampled exact count scaled by SampleEvery.
	Count uint64
}

// HotKeys reads the exact counters for every claimed key and returns
// estimates hottest-first. The exact-counter slot is mirrored client-side:
// the claim arm's HASH sits at instruction 20 under every placement (NOPs
// are inserted at the MEM op, behind it), so its seed is fixed at
// 20 mod stages.
func (h *RecircHH) HotKeys() ([]KeyCount, error) {
	pl := h.Claim.Placement()
	if pl == nil || h.SnapshotFn == nil {
		return nil, nil
	}
	words, err := h.SnapshotFn(h.Claim.FID(), pl.Accesses[0].Physical)
	if err != nil {
		return nil, err
	}
	hashStage := h.Claim.Pipeline.Physical(hxClaim2ndHashIdx)
	mask := rmt.TranslateRegion(0, uint32(len(words))).Mask
	var out []KeyCount
	for key := range h.claimed {
		slot := rmt.StageHash(hashStage, [rmt.NumHashWords]uint32{key}) & mask
		if int(slot) >= len(words) || words[slot] == 0 {
			continue
		}
		out = append(out, KeyCount{Key: key, Count: uint64(words[slot]) * uint64(h.SampleEvery)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// HXGen generates a seeded Zipf key stream with exact ground-truth counts.
type HXGen struct {
	z    *workload.Zipf
	Keys []uint32

	// Truth counts every emitted key occurrence.
	Truth map[uint32]uint64
}

// NewHXGen returns a generator over nkeys distinct non-zero keys with Zipf
// skew s.
func NewHXGen(seed int64, nkeys int, s float64) *HXGen {
	g := &HXGen{
		z:     workload.NewZipf(seed, s, uint64(nkeys)),
		Truth: make(map[uint32]uint64),
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint32]bool)
	for len(g.Keys) < nkeys {
		k := rng.Uint32()
		if k == 0 || seen[k] {
			continue
		}
		seen[k] = true
		g.Keys = append(g.Keys, k)
	}
	return g
}

// Next draws one key (rank 0 is the hottest).
func (g *HXGen) Next() uint32 {
	k := g.Keys[g.z.Next()]
	g.Truth[k]++
	return k
}

// TopTruth returns the k highest ground-truth keys, hottest-first.
func (g *HXGen) TopTruth(k int) []uint32 {
	type kc struct {
		key uint32
		n   uint64
	}
	var all []kc
	for key, n := range g.Truth {
		all = append(all, kc{key, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint32, 0, k)
	for _, e := range all[:k] {
		out = append(out, e.key)
	}
	return out
}
