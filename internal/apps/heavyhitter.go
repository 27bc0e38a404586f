package apps

import (
	"sort"

	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/rmt"
)

// hhMonitorProg is the frequent-item monitor (Appendix B.1, adapted): a
// two-row count-min sketch updated per request, with the sketched count
// compared against a threshold carried in the packet; keys that exceed it
// record a fingerprint in a hash-indexed key table. The sketch rows are
// hash-addressed through switch-side ADDR_MASK/ADDR_OFFSET translation, so
// they need no alignment; the key table entry folds the row-2 address
// through a third mask/offset pair.
//
// Exactly one mutant exists under the most-constrained policy (the paper
// reports the same for its heavy hitter): accesses sit at indices 5, 10,
// 18 of a 20-instruction program, leaving no slack in a single pass.
var hhMonitorProg = isa.MustAssemble("hh-monitor", `
MBR_LOAD 0          // key half 0
COPY_HASHDATA_MBR 0
HASH                // row 1 index
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT       // c1
COPY_MBR2_MBR       // save c1
HASH                // row 2 index
ADDR_MASK
ADDR_OFFSET
MEM_MINREADINC      // MBR2 = min(c1, c2) = sketched count
MBR_LOAD 2          // threshold (client-chosen, in data[2])
MIN                 // MBR = min(threshold, count)
MBR_EQUALS_MBR2     // zero iff count <= threshold
CRETI               // not hot: forward and finish
ADDR_MASK           // fold the row-2 address into the key table
ADDR_OFFSET
MBR_LOAD 0          // fingerprint = key half 0
MEM_WRITE
RETURN
`)

// HHRowBlocks is the per-row sketch demand: 16 one-KB blocks = 4096
// counters per row, the paper's "<0.1% error with high probability" sizing.
const HHRowBlocks = 16

// HHKeyTableBlocks sizes the hot-key fingerprint table.
const HHKeyTableBlocks = 1

// HeavyHitter is the frequent-item monitor service. Traffic keys stream
// through Observe; state extraction goes through the control-plane
// register API (the first of the paper's two extraction methods), injected
// as SnapshotFn.
type HeavyHitter struct {
	Client *client.Client

	// Threshold is the hotness cutoff carried in each packet.
	Threshold uint32

	// SnapshotFn reads this FID's region in a physical stage via the
	// switch control plane (wired by the harness to the controller's
	// register API).
	SnapshotFn func(fid uint16, physStage int) ([]uint32, error)

	// Observed tracks every key the client has sent, so fingerprints can
	// be resolved back to full keys.
	Observed map[uint32]KVMsg

	Updates uint64
}

// HeavyHitterService builds the service definition.
func HeavyHitterService(h *HeavyHitter) *client.Service {
	return &client.Service{
		Name: "heavy-hitter",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main": hhMonitorProg,
		},
		Specs: []compiler.AccessSpec{
			{Demand: HHRowBlocks},
			{Demand: HHRowBlocks},
			{Demand: HHKeyTableBlocks},
		},
		Elastic: false,
	}
}

// NewHeavyHitter returns a monitor with the given hotness threshold.
func NewHeavyHitter(threshold uint32) *HeavyHitter {
	return &HeavyHitter{Threshold: threshold, Observed: make(map[uint32]KVMsg)}
}

// Bind attaches the shim client.
func (h *HeavyHitter) Bind(cl *client.Client) { h.Client = cl }

// Observe activates one request with the monitor program (the paper's case
// study activates the client's object requests). payload and dst let the
// packet continue to the application server.
func (h *HeavyHitter) Observe(k0, k1 uint32, payload []byte, dst [6]byte) {
	h.Observed[k0] = KVMsg{Key0: k0, Key1: k1}
	h.Updates++
	_ = h.Client.SendProgram("main", [4]uint32{k0, k1, h.Threshold, 0}, 0, payload, dst)
}

// HotKeys extracts the key-table fingerprints via the control plane and
// resolves them against observed keys, returning hot keys hottest-first
// (by sketched count read from row 1).
func (h *HeavyHitter) HotKeys() ([]KVMsg, error) {
	pl := h.Client.Placement()
	if pl == nil || h.SnapshotFn == nil {
		return nil, nil
	}
	keyStage := pl.Accesses[2].Physical
	words, err := h.SnapshotFn(h.Client.FID(), keyStage)
	if err != nil {
		return nil, err
	}
	seen := map[uint32]bool{}
	var out []KVMsg
	for _, fp := range words {
		if fp == 0 || seen[fp] {
			continue
		}
		seen[fp] = true
		if kv, ok := h.Observed[fp]; ok {
			out = append(out, kv)
		}
	}
	// Rank by the row-1 sketch count.
	row1Stage := pl.Accesses[0].Physical
	row1, err := h.SnapshotFn(h.Client.FID(), row1Stage)
	if err == nil {
		mask := rmt.TranslateRegion(0, uint32(len(row1))).Mask
		counts := func(kv KVMsg) uint32 {
			idx := h.rowIndex(kv.Key0, row1Stage) & mask
			return row1[idx]
		}
		sort.SliceStable(out, func(i, j int) bool { return counts(out[i]) > counts(out[j]) })
	}
	return out, nil
}

// rowIndex mirrors the switch hash for a stage (the client can do this
// because the hash unit is deterministic per stage).
func (h *HeavyHitter) rowIndex(k0 uint32, stage int) uint32 {
	return rmt.StageHash(stage, [rmt.NumHashWords]uint32{k0})
}

// Programs returns every exemplar program template in this package, for
// harnesses that iterate all registered apps (the plan-vs-reference
// differential suite and the docs catalogue).
func Programs() []*isa.Program {
	return []*isa.Program{
		cacheQueryProg, cachePopulateProg, cachePopulateFwdProg, cacheReadbackProg,
		lbSelectProg, lbSetupProg, lbRouteProg,
		memReadProg, memWriteProg,
		hhMonitorProg,
	}
}
