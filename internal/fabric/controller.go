package fabric

import (
	"fmt"
	"slices"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/client"
	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// maxAskBlocks is the wire-format ceiling on one access's demand (the
// allocation request carries demand as a byte of blocks).
const maxAskBlocks = 255

// admitDeadline bounds each per-device admission attempt in virtual time —
// generous against the controller's compute and table-update costs.
const admitDeadline = 5 * time.Second

// replicaAskBlocks is the pinned per-access demand a replica-set member asks
// for. Replica members are inelastic (see PlaceReplicas), so the demand must
// be explicit; 16 blocks per access is a few thousand words of cache on the
// default 256-word block — small against a device stage, so tenant admission
// is not starved.
const replicaAskBlocks = 16

// Shard is one device's slice of a spilled tenant: its own FID (base+k for
// the k-th engaged device), its own shim client, and the per-access block
// grant it won on that device.
type Shard struct {
	Node   *Node
	Client *client.Client
	FID    uint16
	Blocks int // granted blocks per access
}

// Tenant is one path-placed tenant: the traffic path its placement is
// confined to and the shards that together cover its demand.
type Tenant struct {
	BaseFID uint16
	Leaf    int // the leaf its hosts attach to
	Path    []*Node
	Shards  []*Shard
	// Unplaced is the demand (blocks per access) no on-path device could
	// hold; zero when the path fully absorbed the tenant.
	Unplaced int
}

// Replica is one device executing a replicated tenant's FID.
type Replica struct {
	Node   *Node
	Leaf   int // leaf the replica's client attaches to
	Client *client.Client
}

// ReplicaSet is a FID admitted on several on-path devices with identical
// placements and equal grant epochs — the precondition for one capsule (one
// epoch echo, one set of addresses) to execute validly at every member.
type ReplicaSet struct {
	FID       uint16
	Members   []*Replica
	Placement *alloc.Placement
	Epoch     uint8
}

// Controller is the fabric-level allocator layered above the per-switch
// controllers: it computes tenant paths, drives per-device admissions, and
// records fabric-wide placement telemetry.
type Controller struct {
	F *Fabric

	// Counters (also exported through AttachTelemetry).
	Spills          uint64 // placements that engaged more than one device
	SpillDevices    uint64 // devices engaged beyond the first, summed
	ReplicaMismatch uint64 // replica admissions torn down for placement/epoch skew

	// Failure-domain counters (also exported through AttachTelemetry).
	DegradedEntries uint64 // coherent caches entering degraded (home-drained) mode
	DegradedExits   uint64 // coherent caches leaving degraded mode
	RePlacements    uint64 // orphaned placements re-placed on surviving devices

	// Counts only AttachTelemetry exposes.
	unplacedBlocks  uint64              // demand blocks no on-path device could hold
	recoveredBlocks uint64              // unplaced blocks a later retry placed
	stretch         telemetry.Histogram // devices engaged per placement
}

// NewController builds the fabric controller.
func NewController(f *Fabric) *Controller { return &Controller{F: f} }

// PlaceTenant places demand blocks (per access) for a tenant whose hosts sit
// on the given leaf and whose traffic anchors at server. The placement walks
// the tenant's traffic path in proximity order — leaf first, then the
// path's spine, then the far leaf — asking each device for the remaining
// demand and halving the ask on rejection, so a full pipeline spills the
// remainder to the next on-path device instead of failing the tenant.
// Each engaged device holds its own FID (base+k) with its own client.
//
// newService must return a fresh service definition per shard; the
// controller overrides its per-access demands (inelastic) before admission.
func (c *Controller) PlaceTenant(baseFID uint16, leaf int, server packet.MAC, demand int, newService func() *client.Service) (*Tenant, error) {
	path, err := c.F.PathBetween(leaf, server)
	if err != nil {
		return nil, err
	}
	t := &Tenant{BaseFID: baseFID, Leaf: leaf, Path: path}
	placed, err := c.walk(t, nil, baseFID, demand, newService)
	if err != nil {
		return t, err
	}
	t.Unplaced = demand - placed
	c.recordPlacement(t)
	if len(t.Shards) == 0 {
		return t, fmt.Errorf("fabric: tenant %d: no on-path device admitted any demand", baseFID)
	}
	return t, nil
}

// walk places up to want blocks per access along t's path in order, skipping
// the skip device (nil skips none). Each device that admits anything becomes
// a shard appended to t, under the next FID counting from fid. Returns the
// blocks placed. Must be called from outside engine callbacks.
func (c *Controller) walk(t *Tenant, skip *Node, fid uint16, want int, newService func() *client.Service) (int, error) {
	placed := 0
	for _, node := range t.Path {
		if placed >= want {
			break
		}
		if node == skip {
			continue
		}
		cl, won, err := c.admit(node, t.Leaf, fid, min(want-placed, maxAskBlocks), 1, newService)
		if err != nil {
			return placed, err
		}
		if won > 0 {
			t.Shards = append(t.Shards, &Shard{Node: node, Client: cl, FID: fid, Blocks: won})
			placed += won
			fid++
		}
	}
	return placed, nil
}

// admit runs one device's admission loop for fid: a client on leaf asks node
// for ask blocks per access (inelastic), halving the ask on each rejection
// until it would fall below floor. Returns the client and the ask it won —
// 0 if the device admitted nothing, which is not an error: a full pipeline
// spills onward. Must be called from outside engine callbacks.
func (c *Controller) admit(node *Node, leaf int, fid uint16, ask, floor int, newService func() *client.Service) (*client.Client, int, error) {
	svc := newService()
	svc.Elastic = false
	failed := false
	prevFailed := svc.OnFailed
	svc.OnFailed = func(cl *client.Client) {
		failed = true
		if prevFailed != nil {
			prevFailed(cl)
		}
	}
	cl, err := c.F.AddClient(leaf, fid, node, svc)
	if err != nil {
		return nil, 0, err
	}
	for ; ask >= floor; ask /= 2 {
		for i := range svc.Specs {
			svc.Specs[i].Demand = ask
		}
		failed = false
		if err := cl.RequestAllocation(); err != nil {
			return cl, 0, err
		}
		c.F.Eng.StepUntil(c.F.Eng.Now()+admitDeadline, func() bool { return failed || cl.Operational() })
		if cl.Operational() {
			return cl, ask, nil
		}
	}
	return cl, 0, nil
}

// RetryUnplaced retries a tenant's unplaced remainder against its path —
// capacity may have freed since the original placement (a released tenant,
// a repaired device). Shards won are appended under the next free FIDs and
// t.Unplaced is decremented by what they absorbed. Returns the blocks
// placed. Must be called from outside engine callbacks.
func (c *Controller) RetryUnplaced(t *Tenant, newService func() *client.Service) (int, error) {
	if t.Unplaced <= 0 {
		return 0, nil
	}
	placed, err := c.walk(t, nil, t.BaseFID+uint16(len(t.Shards)), t.Unplaced, newService)
	t.Unplaced -= placed
	if err != nil {
		return placed, err
	}
	c.recoveredBlocks += uint64(placed)
	return placed, nil
}

// ReconcileTenant re-places a tenant's shards stranded on a dead device
// onto the surviving devices of its path. The stranded clients are
// abandoned (their device is unreachable; its allocator still carries the
// grant and will resynchronize through the normal recovery path when the
// device returns) and the stranded demand is re-admitted under fresh FIDs
// on the path's other devices. Returns the blocks re-placed; demand no
// survivor could hold lands back in t.Unplaced. Must be called from
// outside engine callbacks.
func (c *Controller) ReconcileTenant(t *Tenant, dead *Node, newService func() *client.Service) (int, error) {
	var keep []*Shard
	stranded := 0
	maxFID := t.BaseFID
	for _, sh := range t.Shards {
		if sh.FID >= maxFID {
			maxFID = sh.FID + 1
		}
		if sh.Node == dead {
			stranded += sh.Blocks
			continue
		}
		keep = append(keep, sh)
	}
	if stranded == 0 {
		return 0, nil
	}
	t.Shards = keep
	placed, err := c.walk(t, dead, maxFID, stranded, newService)
	if err != nil {
		return placed, err
	}
	t.Unplaced += stranded - placed
	c.RePlacements++
	c.unplacedBlocks += uint64(stranded - placed)
	return placed, nil
}

// recordPlacement updates the spill/stretch accounting for one placement.
func (c *Controller) recordPlacement(t *Tenant) {
	if len(t.Shards) == 0 {
		return
	}
	if len(t.Shards) > 1 {
		c.Spills++
		c.SpillDevices += uint64(len(t.Shards) - 1)
	}
	c.unplacedBlocks += uint64(t.Unplaced)
	c.stretch.Observe(uint64(len(t.Shards)))
}

// PlaceReplicas admits one FID on the local leaf of every listed leaf index
// plus the home spine for server traffic, verifying that all members hold
// identical placements and equal grant epochs. Reader clients attach to
// their own leaves; the home spine's client attaches to the first leaf. On
// placement or epoch skew the whole set is released and an error returned —
// a capsule stamping one epoch echo must be valid everywhere.
func (c *Controller) PlaceReplicas(fid uint16, leaves []int, server packet.MAC, newService func() *client.Service) (*ReplicaSet, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("fabric: replica set needs at least one leaf")
	}
	nodes := make([]*Node, 0, len(leaves)+1)
	for _, leaf := range leaves {
		if leaf < 0 || leaf >= len(c.F.Leaves) {
			return nil, fmt.Errorf("fabric: leaf %d out of range", leaf)
		}
		nodes = append(nodes, c.F.Leaves[leaf])
	}
	nodes = append(nodes, c.F.SpineFor(server))
	set := &ReplicaSet{FID: fid}
	// Replica members must be PINNED: the set's validity rests on every
	// member sharing one placement, and an elastic member any single device
	// may independently shrink or relocate under tenant pressure would
	// silently break that alignment — capsules would then address the wrong
	// buckets on the moved member until a repair notices. Pinning means an
	// explicit demand: the first member may halve its ask to fit, but every
	// later member must admit at the set's exact ask or the placements
	// cannot match.
	ask, floor := replicaAskBlocks, 1
	for i, node := range nodes {
		leaf := leaves[0]
		if i < len(leaves) {
			leaf = leaves[i]
		}
		cl, won, err := c.admit(node, leaf, fid, ask, floor, newService)
		if err == nil && won == 0 {
			err = fmt.Errorf("no capacity for %d pinned blocks (state %v)", floor, cl.State())
		}
		if err != nil {
			c.releaseSet(set)
			return nil, fmt.Errorf("fabric: replica on %s: %w", node.Name, err)
		}
		ask, floor = won, won
		// Pin the member against local defragmentation for the same reason
		// it is inelastic: a migration on one device would skew the set's
		// shared placement.
		node.Ctrl.PinPlacement(fid)
		set.Members = append(set.Members, &Replica{Node: node, Leaf: leaf, Client: cl})
	}

	ref := set.Members[0]
	// The set keeps its placement past the client's next grant, which
	// reuses the client's buffer: it keeps a copy.
	pl := *ref.Client.Placement()
	pl.Accesses = slices.Clone(pl.Accesses)
	set.Placement, set.Epoch = &pl, ref.Client.Epoch()
	for _, m := range set.Members[1:] {
		if !samePlacement(set.Placement, m.Client.Placement()) || m.Client.Epoch() != set.Epoch {
			c.ReplicaMismatch++
			c.releaseSet(set)
			return nil, fmt.Errorf("fabric: replica on %s diverged from %s (placement or epoch)",
				m.Node.Name, ref.Node.Name)
		}
	}
	c.stretch.Observe(uint64(len(set.Members))) // every member is one engaged device
	return set, nil
}

// releaseSet relinquishes every admitted member of a torn-down replica set
// and lifts the set's migration pins.
func (c *Controller) releaseSet(set *ReplicaSet) {
	for _, m := range set.Members {
		m.Node.Ctrl.UnpinPlacement(set.FID)
		if m.Client.Placement() != nil {
			_ = m.Client.Release()
		}
	}
	c.F.RunFor(time.Second)
}

// samePlacement reports whether two placements grant the same mutant and the
// same word ranges in the same logical stages.
func samePlacement(a, b *alloc.Placement) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.MutantIdx == b.MutantIdx && slices.Equal(a.Accesses, b.Accesses)
}

// AttachTelemetry registers fabric-level metrics on the registry, read from
// the controller's counters and the member switches' allocators: per-switch
// occupancy (blocks), placement spill counters, the failure-domain counters
// and the path-stretch histogram (devices engaged per placement).
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	reg.Vec("activermt_fabric_switch_occupancy_blocks", "allocated blocks per fabric switch", telemetry.KindGauge, "switch",
		func(add func(string, float64)) {
			for _, n := range c.F.Nodes() {
				add(n.Name, float64(n.OccupiedBlocks()))
			}
		})
	reg.Counter("activermt_fabric_placement_spills_total", "tenant placements that engaged more than one on-path device", &c.Spills)
	reg.Counter("activermt_fabric_placement_spill_devices_total", "extra on-path devices engaged beyond the first, summed over placements", &c.SpillDevices)
	reg.Counter("activermt_fabric_replica_mismatch_total", "replica admissions torn down for placement or epoch skew", &c.ReplicaMismatch)
	reg.Counter("activermt_fabric_placement_unplaced_blocks_total", "demand blocks no on-path device could hold", &c.unplacedBlocks)
	reg.Histogram("activermt_fabric_path_stretch_devices", "devices engaged per tenant placement (1 = no stretch)",
		func() *telemetry.Histogram { return &c.stretch })
	reg.CounterFunc("activermt_fabric_link_flaps_total", "leaf-spine link down-transitions declared by the health monitor", func() uint64 {
		if h := c.F.health; h != nil {
			return h.FlapsObserved
		}
		return 0
	})
	reg.Counter("activermt_fabric_reroutes_total", "spine-hashed routes repointed around dead links or drained spines", &c.F.Reroutes)
	reg.Counter("activermt_fabric_cache_degraded_entries_total", "coherent caches entering degraded (home-drained) mode", &c.DegradedEntries)
	reg.Counter("activermt_fabric_cache_degraded_exits_total", "coherent caches leaving degraded mode after home resync", &c.DegradedExits)
	reg.Counter("activermt_fabric_replacements_total", "orphaned placements re-placed on surviving devices", &c.RePlacements)
	reg.Counter("activermt_fabric_placement_recovered_blocks_total", "previously unplaced demand blocks placed by a later retry", &c.recoveredBlocks)
}
