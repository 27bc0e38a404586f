// Package testbed assembles the full ActiveRMT system — simulated RMT
// switch, runtime, controller, clients, and servers on a star topology —
// the way the paper's evaluation testbed wires a Wedge100BF-65X to client
// machines over 40 Gbps links (Section 6). Integration tests and the
// experiment harness both build on it.
package testbed

import (
	"net/netip"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/switchd"
	"activermt/internal/telemetry"
)

// Config selects the testbed's parameters: the switch (promoted RMT and
// Alloc) and the host links.
type Config struct {
	switchd.NodeConfig
	LinkDelay time.Duration
	LinkBW    float64 // bits per second; 0 = infinite
}

// DefaultConfig mirrors the paper's testbed: 20-stage switch, 1 KB blocks,
// worst-fit most-constrained allocation, 40 Gbps links.
func DefaultConfig() Config {
	return Config{
		NodeConfig: switchd.DefaultNodeConfig(),
		LinkDelay:  5 * time.Microsecond,
		LinkBW:     40e9,
	}
}

// Testbed is one assembled system: a switchd.Node (promoted RT, Switch,
// Ctrl, Guard) on its own engine, with hosts on a star of links.
type Testbed struct {
	Eng *netsim.Engine
	*switchd.Node

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
	node, err := switchd.NewNode(eng, cfg.NodeConfig, MACFor(0))
	if err != nil {
		return nil, err
	}
	return &Testbed{Eng: eng, Node: node, cfg: cfg, nextPort: 1, nextHost: 1}, nil
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

// EnableTelemetry builds one registry and instruments every layer of the
// switch with it (Node.AttachTelemetry) plus — via System() — the chaos
// event counter. Idempotent: repeated calls return the same registry.
func (tb *Testbed) EnableTelemetry() *telemetry.Registry {
	if tb.Tel == nil {
		tb.Tel = telemetry.NewRegistry()
		tb.AttachTelemetry(tb.Tel)
		tb.chaosTel = chaos.NewTelemetry(tb.Tel)
	}
	return tb.Tel
}

// System exposes the assembled components to the chaos fault-injection
// layer: scenarios built against this system act on the testbed's engine
// and switch.
func (tb *Testbed) System() *chaos.System {
	return &chaos.System{Eng: tb.Eng, Node: tb.Node, Tel: tb.chaosTel}
}

// RunFor advances virtual time by d.
func (tb *Testbed) RunFor(d time.Duration) { tb.Eng.RunUntil(tb.Eng.Now() + d) }

// WaitOperational runs the simulation until the client is operational or
// the deadline passes.
func (tb *Testbed) WaitOperational(cl *client.Client, deadline time.Duration) error {
	return cl.WaitOperational(deadline)
}
