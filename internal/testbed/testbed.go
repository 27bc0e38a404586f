// Package testbed assembles the full ActiveRMT system — simulated RMT
// switch, runtime, controller, clients, and servers on a star topology —
// the way the paper's evaluation testbed wires a Wedge100BF-65X to client
// machines over 40 Gbps links (Section 6). Integration tests and the
// experiment harness both build on it.
package testbed

import (
	"fmt"
	"net/netip"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/policy"
	"activermt/internal/rmt"
	"activermt/internal/runtime"
	"activermt/internal/switchd"
	"activermt/internal/telemetry"
)

// Config selects the testbed's parameters.
type Config struct {
	RMT       rmt.Config
	Alloc     alloc.Config
	Costs     switchd.Costs
	Guard     guard.Policy
	NoGuard   bool // disable the capsule guard entirely
	LinkDelay time.Duration
	LinkBW    float64 // bits per second; 0 = infinite
}

// DefaultConfig mirrors the paper's testbed: 20-stage switch, 1 KB blocks,
// worst-fit most-constrained allocation, 40 Gbps links.
func DefaultConfig() Config {
	return Config{
		RMT:       rmt.DefaultConfig(),
		Alloc:     alloc.DefaultConfig(),
		Costs:     switchd.DefaultCosts(),
		Guard:     guard.DefaultPolicy(),
		LinkDelay: 5 * time.Microsecond,
		LinkBW:    40e9,
	}
}

// Testbed is one assembled system.
type Testbed struct {
	Eng    *netsim.Engine
	RT     *runtime.Runtime
	Switch *switchd.Switch
	Ctrl   *switchd.Controller
	Guard  *guard.Guard // nil when Config.NoGuard

	// Tel is the telemetry registry, non-nil after EnableTelemetry.
	Tel      *telemetry.Registry
	chaosTel *chaos.Telemetry

	cfg      Config
	nextPort int
	nextHost int
}

// New builds an empty testbed (switch only).
func New(cfg Config) (*Testbed, error) {
	eng := netsim.NewEngine()
	rt, err := runtime.New(cfg.RMT)
	if err != nil {
		return nil, err
	}
	al, err := alloc.New(cfg.Alloc)
	if err != nil {
		return nil, err
	}
	sw := switchd.NewSwitch(rt, MACFor(0))
	ctrl := switchd.NewController(eng, sw, al, cfg.Costs)
	tb := &Testbed{Eng: eng, RT: rt, Switch: sw, Ctrl: ctrl, cfg: cfg, nextPort: 1, nextHost: 1}
	if !cfg.NoGuard {
		pol := cfg.Guard
		if pol == (guard.Policy{}) {
			pol = guard.DefaultPolicy()
		}
		tb.Guard = guard.New(rt, pol, eng.Now)
		sw.SetGuard(tb.Guard)
		rt.SetGuardHook(tb.Guard)
		ctrl.AttachGuard(tb.Guard)
	}
	return tb, nil
}

// MACFor returns the deterministic MAC of host n (0 is the switch).
func MACFor(n int) packet.MAC {
	return packet.MAC{0x02, 0x00, 0x00, 0x00, byte(n >> 8), byte(n)}
}

// IPFor returns the deterministic IP of host n.
func IPFor(n int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(n >> 8), byte(n)})
}

// Attach connects an endpoint to the switch and returns its switch port
// number and host MAC.
func (tb *Testbed) Attach(ep netsim.Endpoint, mac packet.MAC) (port int, hostPort *netsim.Port) {
	pnum := tb.nextPort
	tb.nextPort++
	swPort, epPort := netsim.Connect(tb.Eng, tb.Switch, pnum, ep, 0, tb.cfg.LinkDelay, tb.cfg.LinkBW)
	tb.Switch.AddPort(swPort, mac)
	return pnum, epPort
}

// NewHostID reserves a host identity (MAC/IP pair).
func (tb *Testbed) NewHostID() (int, packet.MAC, netip.Addr) {
	n := tb.nextHost
	tb.nextHost++
	return n, MACFor(n), IPFor(n)
}

// AddClient builds a shim client for a service, attaches it, and returns
// it. The client's pipeline view matches the testbed switch.
func (tb *Testbed) AddClient(fid uint16, svc *client.Service) *client.Client {
	_, mac, _ := tb.NewHostID()
	cl := client.New(tb.Eng, fid, mac, tb.Switch.MAC(), svc)
	cl.Pipeline = client.Pipeline{
		NumStages:  tb.cfg.RMT.NumStages,
		NumIngress: tb.cfg.RMT.NumIngress,
		MaxPasses:  tb.cfg.Alloc.MaxPasses,
	}
	_, p := tb.Attach(cl, mac)
	cl.Attach(p)
	return cl
}

// EnableTelemetry builds one registry and instruments every layer of the
// testbed with it: runtime + device (packet counters, latency histogram,
// per-stage occupancy), guard (violation counters, tenant-state gauges),
// controller + allocator (provisioning histograms, per-tenant block gauges),
// the program cache (hit ratio), and — via System() — the chaos event
// counter. Idempotent: repeated calls return the same registry.
func (tb *Testbed) EnableTelemetry() *telemetry.Registry {
	if tb.Tel != nil {
		return tb.Tel
	}
	reg := telemetry.NewRegistry()
	tb.RT.AttachTelemetry(reg)
	if tb.Guard != nil {
		tb.Guard.AttachTelemetry(reg)
	}
	tb.Ctrl.AttachTelemetry(reg)
	tb.Switch.ProgCache().AttachTelemetry(reg)
	tb.chaosTel = chaos.NewTelemetry(reg)
	tb.Tel = reg
	return reg
}

// AttachPolicy wires a policy engine over the testbed: a policy.Loop on
// the simulation clock observes the telemetry registry (enabling telemetry
// if needed) and applies each decision set to the controller and guard.
// When the decisions enable defragmentation and the observed fragmentation
// crosses the trigger, a defrag pass is queued on the controller. Returns
// the loop (already started); call loop.Stop() to detach.
func (tb *Testbed) AttachPolicy(eng policy.Engine) *policy.Loop {
	reg := tb.EnableTelemetry()
	loop := &policy.Loop{
		Engine:   eng,
		Registry: reg,
		Schedule: tb.Eng.Schedule,
		Now:      tb.Eng.Now,
		Apply: func(obs policy.Observation, d policy.Decisions) {
			tb.Ctrl.ApplyPolicy(d)
			tb.Ctrl.Allocator().SetTuning(d.Alloc)
			if tb.Guard != nil {
				tb.Guard.ApplyThresholds(d.Guard)
			}
			if d.Defrag.Enabled && obs.Fragmentation >= d.Defrag.TriggerFrag {
				tb.Ctrl.Defragment(d.Defrag.MaxMoves)
			}
		},
	}
	loop.AttachTelemetry(reg)
	loop.Start()
	return loop
}

// System exposes the assembled components to the chaos fault-injection
// layer: scenarios built against this system act on the testbed's engine,
// switch, controller, and runtime.
func (tb *Testbed) System() *chaos.System {
	return &chaos.System{Eng: tb.Eng, Switch: tb.Switch, Ctrl: tb.Ctrl, RT: tb.RT, Guard: tb.Guard, Tel: tb.chaosTel}
}

// SnapshotFn exposes the controller-side register read API for apps that
// extract state via the control plane.
func (tb *Testbed) SnapshotFn() func(fid uint16, phys int) ([]uint32, error) {
	return func(fid uint16, phys int) ([]uint32, error) {
		words, _, err := tb.RT.Snapshot(fid, phys)
		return words, err
	}
}

// RunFor advances virtual time by d.
func (tb *Testbed) RunFor(d time.Duration) { tb.Eng.RunUntil(tb.Eng.Now() + d) }

// WaitOperational runs the simulation until the client is operational or
// the deadline passes.
func (tb *Testbed) WaitOperational(cl *client.Client, deadline time.Duration) error {
	limit := tb.Eng.Now() + deadline
	for tb.Eng.Now() < limit && cl.State() != client.Operational {
		if tb.Eng.Pending() == 0 {
			break
		}
		tb.Eng.Step()
	}
	if cl.State() != client.Operational {
		return fmt.Errorf("testbed: fid %d stuck in %v", cl.FID(), cl.State())
	}
	return nil
}
