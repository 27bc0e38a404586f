package switchd

import (
	"fmt"

	"activermt/internal/alloc"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
	"activermt/internal/telemetry"
)

// Host is an endpoint a switch port serves: it knows its own MAC and takes
// its end of the link. The testbed and the fabric attach hosts of this shape.
type Host interface {
	netsim.Endpoint
	MAC() packet.MAC
	Attach(p *netsim.Port)
}

// NodeConfig is what one switch is built from: the pipeline and the
// allocator over it. Controller costs and guard thresholds are package
// constants (the guard's escalation ladder is guard's).
type NodeConfig struct {
	RMT   rmt.Config
	Alloc alloc.Config
}

// DefaultNodeConfig mirrors the paper's switch: 20 stages, 1 KB blocks,
// worst-fit most-constrained allocation.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{RMT: rmt.DefaultConfig(), Alloc: alloc.DefaultConfig()}
}

// Node is one fully assembled switch — the paper's single shared runtime
// image with its control plane: pipeline runtime, allocator, data-plane
// switch, controller and capsule guard, wired together in NewNode and
// nowhere else. The testbed, every fabric device and the chaos layer's
// System embed it.
type Node struct {
	RT     *runtime.Runtime
	Switch *Switch
	Ctrl   *Controller
	Guard  *guard.Guard
}

// NewNode assembles a switch on eng. There is no guard-less variant:
// isolation is a property of the shared pipeline, not an opt-in.
func NewNode(eng *netsim.Engine, cfg NodeConfig, mac packet.MAC) (*Node, error) {
	if err := cfg.Alloc.CheckPipeline(cfg.RMT.NumStages, cfg.RMT.NumIngress, cfg.RMT.StageWords); err != nil {
		return nil, err
	}
	rt, err := runtime.New(cfg.RMT)
	if err != nil {
		return nil, err
	}
	al, err := alloc.New(cfg.Alloc)
	if err != nil {
		return nil, err
	}
	sw := &Switch{
		rt:    rt,
		mac:   mac,
		cache: packet.NewProgCache(),
		ports: make(map[int]*netsim.Port),
		hosts: make(map[packet.MAC]int),
	}
	ctrl := &Controller{
		eng:       eng,
		sw:        sw,
		rt:        rt,
		al:        al,
		clients:   make(map[uint16]packet.MAC),
		noMigrate: make(map[uint16]bool),
		alive:     true,
	}
	// The controller is the guard's escalator (quarantine and evict
	// decisions land there) and reinstates ledgers as it grants fresh
	// allocations; the runtime reports faults to the guard.
	g := guard.New(rt, eng.Now, ctrl)
	sw.ctrl, sw.guard, ctrl.guard = ctrl, g, g
	rt.SetGuardHook(g)
	return &Node{RT: rt, Switch: sw, Ctrl: ctrl, Guard: g}, nil
}

// AttachTelemetry instruments every layer of the switch with reg: runtime +
// device (packet counters, latency histogram, per-stage occupancy), guard
// (violation counters, tenant-state gauges), controller + allocator
// (provisioning histograms, per-tenant block gauges) and the program cache
// (hit ratio). Metric names are registry-global: one node per registry.
func (n *Node) AttachTelemetry(reg *telemetry.Registry) {
	n.RT.AttachTelemetry(reg)
	n.Guard.AttachTelemetry(reg)
	n.Ctrl.AttachTelemetry(reg)
	n.Switch.ProgCache().AttachTelemetry(reg)
}

// Violation is one breach of a row of docs/invariants.md found on a switch.
type Violation struct {
	Row    string // the table's ID, e.g. "P1"
	Detail string
}

// Check audits a settled switch against the rows its tables can show: the
// isolation audit's findings (P1) first, then the allocator's books (P4),
// then — while the controller is alive and no job is in progress — the
// books against the protection tables (P4b): every resident with
// constraints on file is installed at exactly its placement's stages and
// word ranges. It returns nil when all hold.
func (n *Node) Check() []Violation {
	var out []Violation
	for _, f := range guard.AuditRuntime(n.RT) {
		out = append(out, Violation{Row: "P1", Detail: f.String()})
	}
	al := n.Ctrl.Allocator()
	if err := al.AuditBooks(); err != nil {
		out = append(out, Violation{Row: "P4", Detail: err.Error()})
	}
	if !n.Ctrl.alive || n.Ctrl.cur != nil {
		return out
	}
	for _, fid := range al.FIDs() {
		pl, ok := al.PlacementFor(fid)
		if !ok {
			continue // recovered form: the tables are its only record
		}
		installed := n.RT.InstalledRegions(fid)
		same := len(installed) == len(pl.Accesses)
		for _, ap := range pl.Accesses {
			reg, ok := installed[ap.Physical]
			same = same && ok && reg.Lo == ap.Range.Lo && reg.Hi == ap.Range.Hi
		}
		if !same {
			out = append(out, Violation{Row: "P4b", Detail: fmt.Sprintf("fid %d: books %v, tables %v", fid, pl.Accesses, installed)})
		}
	}
	return out
}

// SnapshotFn exposes the controller-side register read API for apps that
// extract state via the control plane.
func (n *Node) SnapshotFn() func(fid uint16, phys int) ([]uint32, error) {
	return func(fid uint16, phys int) ([]uint32, error) {
		words, _, err := n.RT.Snapshot(fid, phys)
		return words, err
	}
}
