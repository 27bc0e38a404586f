package switchd

import (
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
	sw := NewSwitch(rt, mac)
	n := &Node{
		RT:     rt,
		Switch: sw,
		Ctrl:   NewController(eng, sw, al),
		Guard:  guard.New(rt, eng.Now),
	}
	sw.SetGuard(n.Guard)
	rt.SetGuardHook(n.Guard)
	n.Ctrl.AttachGuard(n.Guard)
	return n, nil
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
// isolation audit's findings (P1) first, then the allocator's books (P4).
// It returns nil when both hold.
func (n *Node) Check() []Violation {
	var out []Violation
	for _, f := range guard.AuditRuntime(n.RT) {
		out = append(out, Violation{Row: "P1", Detail: f.String()})
	}
	if err := n.Ctrl.Allocator().AuditBooks(); err != nil {
		out = append(out, Violation{Row: "P4", Detail: err.Error()})
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
