// Package fabric grows the single-switch ActiveRMT testbed into a
// leaf-spine fabric of runtime-programmable switches: N leaf and M spine
// devices, hosts attached to leaves, full-mesh leaf<->spine links, and a
// fabric-level controller layered above the per-switch controllers.
//
// Each fabric node is a complete ActiveRMT switch — its own RMT pipeline,
// runtime, allocator, per-switch controller, and capsule guard — so every
// single-switch guarantee (TCAM isolation, grant epochs, crash recovery)
// holds per device. What the fabric adds on top:
//
//   - Destination-based routing, with no route tables. A switch asks the
//     fabric for a destination its own ports do not reach
//     (switchd.SetUplink), which makes it a transit node: control traffic
//     transits toward the switch it addresses, and program capsules
//     forwarded onward carry their full original program so the next
//     on-path device re-executes from the top. PHV state never crosses
//     devices — a capsule executes a partial program per device per pass,
//     exactly one fresh execution per hop.
//
//   - Per-device admission. The fabric controller admits a tenant on one
//     device through a client on the tenant's leaf (Controller.Admit); that
//     device's allocator runs the paper's cost/utility allocation and owns
//     the tenant's memory. No tenant's demand is split across devices.
//
//   - Replicated placement with aligned epochs. A tenant can admit the
//     same FID on several on-path devices with identical placements and
//     equal grant epochs (Controller.PlaceReplicas), so one capsule —
//     stamping one epoch echo — executes validly at every replica. The
//     coherent cache (cache.go) builds on this.
package fabric

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/switchd"
)

// Config selects the fabric's shape and per-device parameters. Every switch
// is built from the same RMT/alloc configuration (a homogeneous fabric, as
// in the paper's testbed).
type Config struct {
	Leaves int
	Spines int

	switchd.NodeConfig // every device's pipeline and allocator (promoted RMT, Alloc)

	HostLinkDelay   time.Duration // host <-> leaf propagation delay
	FabricLinkDelay time.Duration // leaf <-> spine propagation delay
	LinkBW          float64       // bits per second; 0 = infinite
}

// DefaultConfig mirrors the single-switch testbed defaults on every device:
// 20-stage pipelines, 1 KB blocks, 40 Gbps links, with a slightly longer
// leaf-spine propagation delay than the host links.
func DefaultConfig(leaves, spines int) Config {
	return Config{
		Leaves:          leaves,
		Spines:          spines,
		NodeConfig:      switchd.DefaultNodeConfig(),
		HostLinkDelay:   5 * time.Microsecond,
		FabricLinkDelay: 10 * time.Microsecond,
		LinkBW:          40e9,
	}
}

// Node is one fabric switch: a switchd.Node (promoted RT, Switch, Ctrl,
// Guard) with its place in the topology.
type Node struct {
	Name  string
	Leaf  bool
	Index int // index within its tier
	MAC   packet.MAC

	*switchd.Node

	nextPort int
	// up[spine] is a leaf's port toward that spine; down[leaf] is a spine's
	// port toward that leaf.
	up, down []int
}

// OccupiedBlocks sums the allocator's per-stage usage — the node's occupancy
// in blocks.
func (n *Node) OccupiedBlocks() int {
	al := n.Ctrl.Allocator()
	total := 0
	for s := 0; s < al.Config().NumStages; s++ {
		total += al.StageUsed(s)
	}
	return total
}

// SwitchMAC returns the deterministic address of a fabric switch.
func SwitchMAC(leaf bool, idx int) packet.MAC {
	tier := byte(2)
	if leaf {
		tier = 1
	}
	return packet.MAC{0x02, 0xF0, tier, 0x00, byte(idx >> 8), byte(idx)}
}

// HostMAC returns the deterministic address of fabric host n.
func HostMAC(n int) packet.MAC {
	return packet.MAC{0x02, 0xF0, 0x00, 0x01, byte(n >> 8), byte(n)}
}

// HostIP returns the deterministic IP of fabric host n.
func HostIP(n int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(n >> 8), byte(n)})
}

// Fabric is an assembled leaf-spine topology.
type Fabric struct {
	Eng    *netsim.Engine
	Leaves []*Node
	Spines []*Node

	cfg      Config
	at       map[packet.MAC]location // every host and leaf-switch MAC
	nextHost int

	// linkDown[leaf][spine] marks a leaf<->spine link the routing layer must
	// avoid (set by the health monitor on detection, not by the physical
	// port state — detection lag is part of the model). drained[spine] marks
	// a spine all host-bound routes should avoid even where its links are
	// up (the coherent cache drains a stale home).
	linkDown [][]bool
	drained  []bool

	// Reroutes counts the (source leaf, destination leaf, hashed spine)
	// paths whose chosen spine a link or drain change moved; the fabric
	// controller's telemetry and the soak read it.
	Reroutes uint64

	health *Health // the link-health monitor, if one was built (NewHealth)
}

// location is where a MAC sits: its leaf, and the spine its MAC hashes to
// (computed once, so no frame pays the hash).
type location struct{ leaf, spine int }

// New builds the fabric: every switch a switchd.Node like the single-switch
// testbed's, every leaf linked to every spine, and every switch routing
// beyond its own ports through the fabric.
func New(cfg Config) (*Fabric, error) {
	if cfg.Leaves < 1 || cfg.Spines < 1 {
		return nil, fmt.Errorf("fabric: need at least 1 leaf and 1 spine, got %dx%d", cfg.Leaves, cfg.Spines)
	}
	f := &Fabric{
		Eng:     netsim.NewEngine(),
		cfg:     cfg,
		at:      make(map[packet.MAC]location),
		drained: make([]bool, cfg.Spines),
	}
	for i := 0; i < cfg.Leaves; i++ {
		f.linkDown = append(f.linkDown, make([]bool, cfg.Spines))
	}
	build := func(leaf bool, idx int) (*Node, error) {
		mac := SwitchMAC(leaf, idx)
		sn, err := switchd.NewNode(f.Eng, cfg.NodeConfig, mac)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("spine%d", idx)
		if leaf {
			name = fmt.Sprintf("leaf%d", idx)
		}
		n := &Node{Name: name, Leaf: leaf, Index: idx, MAC: mac, Node: sn, nextPort: 1}
		sn.Switch.SetUplink(func(dst packet.MAC) (int, bool) { return f.uplink(n, dst) })
		return n, nil
	}
	for i := 0; i < cfg.Leaves; i++ {
		n, err := build(true, i)
		if err != nil {
			return nil, err
		}
		f.Leaves = append(f.Leaves, n)
	}
	for j := 0; j < cfg.Spines; j++ {
		n, err := build(false, j)
		if err != nil {
			return nil, err
		}
		f.Spines = append(f.Spines, n)
	}

	// Full-mesh leaf<->spine links, each switch reaching its peers' MACs
	// directly, and every leaf MAC placed so a remote leaf reaches it through
	// a spine: control traffic can address any device from any host.
	for i, l := range f.Leaves {
		f.place(l.MAC, i)
		for _, s := range f.Spines {
			lp, sp := l.nextPort, s.nextPort
			l.nextPort++
			s.nextPort++
			lPort, sPort := netsim.Connect(f.Eng, l.Switch, lp, s.Switch, sp, cfg.FabricLinkDelay, cfg.LinkBW)
			l.Switch.AddPort(lPort, s.MAC)
			s.Switch.AddPort(sPort, l.MAC)
			l.up = append(l.up, lp)
			s.down = append(s.down, sp)
		}
	}
	return f, nil
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Nodes returns every switch, leaves first.
func (f *Fabric) Nodes() []*Node {
	out := make([]*Node, 0, len(f.Leaves)+len(f.Spines))
	out = append(out, f.Leaves...)
	return append(out, f.Spines...)
}

// spineForMAC hashes a destination MAC onto a spine index: the fabric's
// deterministic ECMP stand-in. Every sender picks the same spine for a
// destination, so all traffic toward one host shares one spine.
func (f *Fabric) spineForMAC(mac packet.MAC) int {
	h := fnv.New32a()
	h.Write(mac[:])
	return int(h.Sum32() % uint32(len(f.Spines)))
}

// SpineFor returns the spine node that nominally carries traffic toward dst
// (the hash choice, ignoring link state).
func (f *Fabric) SpineFor(dst packet.MAC) *Node { return f.Spines[f.spineForMAC(dst)] }

// chooseSpine picks the spine a frame from srcLeaf to dstLeaf should cross:
// the nominal hash spine when healthy, otherwise the first spine (in
// deterministic rotation order from the nominal one) whose links to both
// leaves are up and that is not drained. Connectivity beats drain: if only
// drained spines remain reachable, one of them is used. With no live path at
// all the nominal spine is kept — the frames will drop, which is the honest
// outcome of a partition.
func (f *Fabric) chooseSpine(srcLeaf, dstLeaf, nominal int) int {
	m := len(f.Spines)
	for k := 0; k < m; k++ {
		j := (nominal + k) % m
		if f.linkDown[srcLeaf][j] || f.linkDown[dstLeaf][j] || f.drained[j] {
			continue
		}
		return j
	}
	for k := 0; k < m; k++ {
		j := (nominal + k) % m
		if f.linkDown[srcLeaf][j] || f.linkDown[dstLeaf][j] {
			continue
		}
		return j
	}
	return nominal
}

// CurrentSpineFor returns the spine traffic from srcLeaf toward dst actually
// crosses under the current link state (nil for same-leaf destinations).
func (f *Fabric) CurrentSpineFor(srcLeaf int, dst packet.MAC) *Node {
	at, ok := f.at[dst]
	if !ok || at.leaf == srcLeaf {
		return nil
	}
	return f.Spines[f.chooseSpine(srcLeaf, at.leaf, at.spine)]
}

// uplink is switch n's route to a destination its own ports do not reach: a
// leaf crosses the spine chooseSpine picks now, a spine goes down to the
// destination's leaf.
func (f *Fabric) uplink(n *Node, dst packet.MAC) (int, bool) {
	at, ok := f.at[dst]
	switch {
	case !ok:
		return 0, false
	case !n.Leaf:
		return n.down[at.leaf], true
	case at.leaf == n.Index:
		return 0, false
	}
	return n.up[f.chooseSpine(n.Index, at.leaf, at.spine)], true
}

// place records which leaf a MAC sits on.
func (f *Fabric) place(mac packet.MAC, leaf int) {
	f.at[mac] = location{leaf: leaf, spine: f.spineForMAC(mac)}
}

// LinkUp reports whether the routing layer considers the leaf<->spine link
// usable (health-monitor verdict, not physical port state).
func (f *Fabric) LinkUp(leaf, spine int) bool { return !f.linkDown[leaf][spine] }

// SetLinkState marks one leaf<->spine link down or up for routing, which
// moves every path that chose it or avoided it. The health monitor drives
// this from its probe verdicts; tests may drive it directly.
func (f *Fabric) SetLinkState(leaf, spine int, down bool) {
	if leaf < 0 || leaf >= len(f.Leaves) || spine < 0 || spine >= len(f.Spines) {
		return
	}
	if f.linkDown[leaf][spine] == down {
		return
	}
	f.reroute(func() { f.linkDown[leaf][spine] = down })
}

// SetSpineDrain marks a spine to be avoided by all host-bound routes even
// where its links are up. The coherent cache drains a home spine whose
// replica can no longer be kept current, so no reader crosses stale state.
func (f *Fabric) SetSpineDrain(spine int, on bool) {
	if spine < 0 || spine >= len(f.Spines) || f.drained[spine] == on {
		return
	}
	f.reroute(func() { f.drained[spine] = on })
}

// Drained reports whether a spine is currently drained.
func (f *Fabric) Drained(spine int) bool { return f.drained[spine] }

// paths returns the spine chosen for every (source leaf, destination leaf,
// hashed spine) triple under the current link and drain state.
func (f *Fabric) paths() []int {
	out := make([]int, 0, len(f.Leaves)*len(f.Leaves)*len(f.Spines))
	for src := range f.Leaves {
		for dst := range f.Leaves {
			if dst == src {
				continue
			}
			for nominal := range f.Spines {
				out = append(out, f.chooseSpine(src, dst, nominal))
			}
		}
	}
	return out
}

// reroute applies one link or drain change and adds to Reroutes the paths
// whose chosen spine it moved.
func (f *Fabric) reroute(change func()) {
	before := f.paths()
	change()
	for k, j := range f.paths() {
		if j != before[k] {
			f.Reroutes++
		}
	}
}

// UplinkPort returns the leaf-side port of the leaf<->spine link (the
// injection point for link-level chaos on that link).
func (f *Fabric) UplinkPort(leaf, spine int) (*netsim.Port, error) {
	if leaf < 0 || leaf >= len(f.Leaves) || spine < 0 || spine >= len(f.Spines) {
		return nil, fmt.Errorf("fabric: link %d-%d out of range", leaf, spine)
	}
	l := f.Leaves[leaf]
	p, ok := l.Switch.Port(l.up[spine])
	if !ok {
		return nil, fmt.Errorf("fabric: leaf %d has no uplink port to spine %d", leaf, spine)
	}
	return p, nil
}

// SpinePorts returns every spine-side fabric port of one spine — downing
// them all (chaos.Partition) kills the spine's connectivity in both
// directions, the fabric's "spine kill".
func (f *Fabric) SpinePorts(spine int) []*netsim.Port {
	if spine < 0 || spine >= len(f.Spines) {
		return nil
	}
	s := f.Spines[spine]
	out := make([]*netsim.Port, 0, len(s.down))
	for i := 0; i < len(f.Leaves); i++ {
		if p, ok := s.Switch.Port(s.down[i]); ok {
			out = append(out, p)
		}
	}
	return out
}

// AttachHost connects an endpoint to a leaf and places its MAC there, where
// every other switch's uplink finds it. Returns the endpoint's NIC port.
func (f *Fabric) AttachHost(leaf int, ep netsim.Endpoint, mac packet.MAC) (*netsim.Port, error) {
	if leaf < 0 || leaf >= len(f.Leaves) {
		return nil, fmt.Errorf("fabric: leaf %d out of range", leaf)
	}
	l := f.Leaves[leaf]
	pnum := l.nextPort
	l.nextPort++
	swPort, epPort := netsim.Connect(f.Eng, l.Switch, pnum, ep, 0, f.cfg.HostLinkDelay, f.cfg.LinkBW)
	l.Switch.AddPort(swPort, mac)
	f.place(mac, leaf)
	return epPort, nil
}

// NewHostID reserves a fabric-unique host identity.
func (f *Fabric) NewHostID() (packet.MAC, netip.Addr) {
	f.nextHost++
	return HostMAC(f.nextHost), HostIP(f.nextHost)
}

// AddHost attaches h to a leaf (AttachHost) and hands it its end of the
// link.
func (f *Fabric) AddHost(leaf int, h switchd.Host) error {
	p, err := f.AttachHost(leaf, h, h.MAC())
	if err != nil {
		return err
	}
	h.Attach(p)
	return nil
}

// AddKVServer attaches a KV server on a fresh host identity to a leaf.
func (f *Fabric) AddKVServer(leaf int) (*apps.KVServer, error) {
	mac, ip := f.NewHostID()
	srv := apps.NewKVServer(f.Eng, mac, ip)
	return srv, f.AddHost(leaf, srv)
}

// Fabric control-frame retry policy: a relayed control frame crosses up to
// three switches and two fabric links, any of which chaos can drop — without
// retries one lost frame wedges a placement handshake forever. The defaults
// reuse the single-switch policy (backoff x2 with +/-10% jitter, capped at
// 16x, realloc-window escape); callers can override the fields after
// AddClient returns.
const (
	DefaultRetryAfter     = 50 * time.Millisecond
	DefaultReallocTimeout = 500 * time.Millisecond
)

// AddClient builds a shim client on a leaf that negotiates with the given
// fabric switch (its own leaf, a spine, or a remote leaf — control frames
// transit the fabric either way). The client's pipeline view matches the
// homogeneous switch configuration, and the fabric retry policy is armed so
// control frames lost in transit are retransmitted.
func (f *Fabric) AddClient(leaf int, fid uint16, target *Node, svc *client.Service) (*client.Client, error) {
	mac, _ := f.NewHostID()
	cl := client.New(f.Eng, fid, mac, target.MAC, svc)
	cl.Pipeline = f.cfg.Alloc.Shape
	cl.RetryAfter = DefaultRetryAfter
	cl.ReallocTimeout = DefaultReallocTimeout
	if err := f.AddHost(leaf, cl); err != nil {
		return nil, err
	}
	return cl, nil
}

// RunFor advances virtual time by d.
func (f *Fabric) RunFor(d time.Duration) { f.Eng.RunUntil(f.Eng.Now() + d) }
