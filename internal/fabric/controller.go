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

// admitDeadline bounds each per-device admission attempt in virtual time —
// generous against the controller's compute and table-update costs.
const admitDeadline = 5 * time.Second

// replicaAskBlocks is the pinned per-access demand a replica-set member asks
// for. Replica members are inelastic (see PlaceReplicas), so the demand must
// be explicit; 16 blocks per access is a few thousand words of cache on the
// default 256-word block — small against a device stage, so tenant admission
// is not starved.
const replicaAskBlocks = 16

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

// Controller is the fabric-level layer above the per-switch controllers: it
// drives per-device admissions and records fabric-wide telemetry. Each
// device's allocator stays the one owner of that device's memory.
type Controller struct {
	F *Fabric

	// Counters (also exported through AttachTelemetry).
	ReplicaMismatch uint64 // replica admissions torn down for placement/epoch skew

	// Failure-domain counters (also exported through AttachTelemetry).
	DegradedEntries uint64 // coherent caches entering degraded (home-drained) mode
	DegradedExits   uint64 // coherent caches leaving degraded mode
}

// NewController builds the fabric controller.
func NewController(f *Fabric) *Controller { return &Controller{F: f} }

// Admit runs one device's admission loop for fid: a client on leaf asks node
// for ask blocks per access (inelastic), halving the ask on each rejection
// until it would fall below floor. Returns the client and the ask it won —
// 0 if the device admitted nothing, which is not an error: the caller
// decides what a refusal means. Must be called from outside engine
// callbacks.
func (c *Controller) Admit(node *Node, leaf int, fid uint16, ask, floor int, newService func() *client.Service) (*client.Client, int, error) {
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
		cl, won, err := c.Admit(node, leaf, fid, ask, floor, newService)
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
// occupancy (blocks), replica mismatches and the failure-domain counters.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	reg.Vec("activermt_fabric_switch_occupancy_blocks", "allocated blocks per fabric switch", telemetry.KindGauge, "switch",
		func(add func(string, float64)) {
			for _, n := range c.F.Nodes() {
				add(n.Name, float64(n.OccupiedBlocks()))
			}
		})
	reg.Counter("activermt_fabric_replica_mismatch_total", "replica admissions torn down for placement or epoch skew", &c.ReplicaMismatch)
	reg.CounterFunc("activermt_fabric_link_flaps_total", "leaf-spine link down-transitions declared by the health monitor", func() uint64 {
		if h := c.F.health; h != nil {
			return h.FlapsObserved
		}
		return 0
	})
	reg.Counter("activermt_fabric_reroutes_total", "(source leaf, destination leaf, hashed spine) paths moved to another spine by link or drain changes", &c.F.Reroutes)
	reg.Counter("activermt_fabric_cache_degraded_entries_total", "coherent caches entering degraded (home-drained) mode", &c.DegradedEntries)
	reg.Counter("activermt_fabric_cache_degraded_exits_total", "coherent caches leaving degraded mode after home resync", &c.DegradedExits)
}
