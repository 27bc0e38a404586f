// Package client implements the ActiveRMT end-host shim layer (Sections 3.3
// and 5): allocation negotiation, mutant synthesis on allocation responses,
// packet activation, and the reallocation protocol (snapshot window ->
// snapshot-done -> resume). A state machine tracks whether a service is
// operational, negotiating, or performing memory management; active
// transmissions are paused outside the operational state and traffic is
// forwarded unactivated, exactly the behavior behind the zero-hit-rate
// windows of Figure 10.
package client

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
)

// State is the shim-layer state of a service (Section 5).
type State int

// Client states.
const (
	Idle        State = iota // no allocation
	Negotiating              // allocation requested, awaiting response
	Operational              // active programs flowing
	MemMgmt                  // reallocation snapshot window
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Negotiating:
		return "negotiating"
	case Operational:
		return "operational"
	case MemMgmt:
		return "memory-management"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Service defines an active application: a set of program templates sharing
// one memory-access skeleton (so every template synthesizes against the same
// mutant), the per-access demands, and lifecycle callbacks.
type Service struct {
	Name string
	// Templates are the service's programs; all must have identical
	// memory-access instruction indices. Main names the template whose
	// constraints drive allocation.
	Templates map[string]*isa.Program
	Main      string
	Specs     []compiler.AccessSpec
	Elastic   bool

	// OnOperational fires whenever the service (re)enters the operational
	// state: after first admission and after each reallocation completes.
	OnOperational func(c *Client)
	// OnReallocate runs during the snapshot window: the old regions are
	// still installed (and FlagMemSync programs still execute), so the
	// handler can extract state; it must call done() to release the
	// switch. newPl is the placement that will apply afterward.
	OnReallocate func(c *Client, oldPl, newPl *alloc.Placement, done func())
	// OnFailed fires when an allocation request is rejected.
	OnFailed func(c *Client)
	// OnEvicted fires when the switch guard evicts the tenant for isolation
	// violations; the client is back in Idle with no placement. When nil,
	// OnFailed is used as the fallback notification.
	OnEvicted func(c *Client)
}

// Constraints derives the service's allocation constraints from its main
// template and verifies all templates share the access skeleton.
func (s *Service) Constraints() (*alloc.Constraints, error) {
	main, ok := s.Templates[s.Main]
	if !ok {
		return nil, fmt.Errorf("client: service %q missing main template %q", s.Name, s.Main)
	}
	cons, err := compiler.Extract(main, s.Elastic, s.Specs)
	if err != nil {
		return nil, err
	}
	want := main.MemoryAccessIndices()
	names := make([]string, 0, len(s.Templates))
	for n := range s.Templates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := s.Templates[n]
		got := p.MemoryAccessIndices()
		if len(got) != len(want) {
			return nil, fmt.Errorf("client: template %q has %d accesses, main has %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("client: template %q access %d at %d, main at %d", n, i, got[i], want[i])
			}
		}
		if p.Len() > cons.ProgLen {
			cons.ProgLen = p.Len()
		}
		if ing := p.IngressOnlyIndices(); len(ing) > 0 && ing[len(ing)-1] > cons.IngressIdx {
			cons.IngressIdx = ing[len(ing)-1]
		}
	}
	return cons, nil
}

// PolicyBitLC aliases the wire-format policy bit (Section 3.3).
const PolicyBitLC = packet.PolicyBitLC

// Pipeline describes the switch pipeline shape the client compiles against;
// it must match the switch configuration for the shared mutant enumeration
// to agree.
type Pipeline struct {
	NumStages  int
	NumIngress int
	MaxPasses  int
}

// DefaultPipeline matches the paper's 20-stage switch.
func DefaultPipeline() Pipeline {
	return Pipeline{NumStages: packet.NumStages, NumIngress: packet.NumStages / 2, MaxPasses: 2}
}

// mutant is one template synthesized for a placement, and the frame that
// carries it as packet.EncodeFrame renders it with no payload: SendProgram
// copies wire and patches what differs per packet.
type mutant struct {
	prog *isa.Program
	wire []byte
}

// Client is one end-host service instance speaking the ActiveRMT protocol.
type Client struct {
	eng       *netsim.Engine
	port      *netsim.Port
	mac       packet.MAC
	switchMAC packet.MAC
	fid       uint16
	svc       *Service

	// Pipeline is the switch shape the client compiles against.
	Pipeline Pipeline

	// RetryAfter is the initial interval for rearming unanswered allocation
	// requests (the shim polls the controller; requests and responses can
	// be lost). Zero disables retries.
	RetryAfter time.Duration
	// RetryBackoff multiplies the interval after each retry; values < 1
	// (including the zero value) fall back to the default factor of 2.
	// Set to exactly 1 for fixed-interval retries.
	RetryBackoff float64
	// RetryCap bounds the backed-off interval; zero means 16x RetryAfter.
	RetryCap time.Duration
	// ReallocTimeout bounds the memory-management window: a client stuck
	// waiting for the reactivation notice (lost notice, crashed controller)
	// re-enters negotiation after this long. Re-requesting is safe — the
	// controller answers retransmitted requests idempotently. Zero disables
	// the escape.
	ReallocTimeout time.Duration
	// ReadmitAfter, when nonzero, schedules a fresh allocation request that
	// long after an eviction notice — the re-admission penalty box.
	ReadmitAfter time.Duration

	state     State
	placement *alloc.Placement
	progs     map[string]mutant // synthesized per current placement

	// Receive decodes into rx and rxAct; a Handler sees them for the
	// duration of its call.
	rx    packet.Frame
	rxAct packet.Active

	// cons is the constraints of the latest allocation request (derived on
	// first use by a client that never asked), mutants the shared mutant
	// enumeration per policy bit: every grant and reallocation notice is
	// read against them, and neither depends on the grant. A service's
	// demands may change between requests, its templates — all the
	// enumeration depends on — do not. Pipeline is assigned after New, so
	// the enumeration remembers the value it was made under (mutantsFor)
	// and is redone when that changes.
	cons       *alloc.Constraints
	mutants    [2][]alloc.Mutant
	mutantsFor Pipeline

	// grantEpoch is the switch-issued epoch of the current grant, echoed on
	// every program capsule so the guard can authenticate the FID claim.
	// pendingEpoch holds the epoch a reallocation notice announced; it
	// applies when the reactivation notice confirms the tables switched.
	grantEpoch   uint8
	pendingEpoch uint8

	// Handler receives every non-protocol frame addressed to this host
	// (RTS replies, forwarded traffic). Optional. The frame is valid for the
	// duration of the call: it is the client's decode scratch and its Inner
	// aliases the delivered bytes, so a handler copies what it keeps. A
	// program capsule's Active carries no Program.
	Handler func(c *Client, f *packet.Frame)

	// Counters.
	Sent, SentUnactivated, Received uint64
	Reallocations, Retries          uint64
	// PhaseRetries counts retries within the current negotiation phase
	// (reset by each RequestAllocation call); ReallocTimeouts counts
	// escapes from stuck memory-management windows; Evictions counts guard
	// eviction notices received.
	PhaseRetries    uint64
	ReallocTimeouts uint64
	Evictions       uint64

	reqEpoch uint64
	mmEpoch  uint64
	rng      *rand.Rand
}

// retryJitterFrac randomizes each retry interval by +/-10% so clients that
// start together do not retry in lockstep.
const retryJitterFrac = 0.1

// New builds a client for fid running svc.
func New(eng *netsim.Engine, fid uint16, mac, switchMAC packet.MAC, svc *Service) *Client {
	if svc.Main == "" {
		svc.Main = "main"
	}
	return &Client{
		eng:       eng,
		mac:       mac,
		switchMAC: switchMAC,
		fid:       fid,
		svc:       svc,
		Pipeline:  DefaultPipeline(),
		progs:     map[string]mutant{},
		// Deterministic per-FID jitter source: same topology, same seed,
		// same retry trace.
		rng: rand.New(rand.NewSource(int64(fid)*2654435761 + 1)),
	}
}

// Attach wires the client's NIC port.
func (c *Client) Attach(p *netsim.Port) { c.port = p }

// Port returns the attached NIC port (nil before Attach).
func (c *Client) Port() *netsim.Port { return c.port }

// FID returns the client's flow/program identifier.
func (c *Client) FID() uint16 { return c.fid }

// MAC returns the client's address.
func (c *Client) MAC() packet.MAC { return c.mac }

// State returns the shim state.
func (c *Client) State() State { return c.state }

// Operational reports whether active transmissions are enabled.
func (c *Client) Operational() bool { return c.state == Operational }

// Placement returns the current allocation (nil before admission).
func (c *Client) Placement() *alloc.Placement { return c.placement }

// Engine returns the simulation engine (for app timers).
func (c *Client) Engine() *netsim.Engine { return c.eng }

// Service returns the service definition.
func (c *Client) Service() *Service { return c.svc }

// Program returns the synthesized template by name (nil before admission).
func (c *Client) Program(name string) *isa.Program { return c.progs[name].prog }

// Epoch returns the grant epoch the client currently stamps on capsules
// (0 before first admission).
func (c *Client) Epoch() uint8 { return c.grantEpoch }

// RequestAllocation sends the allocation request derived from the service's
// constraints, retrying while unanswered if RetryAfter is set.
func (c *Client) RequestAllocation() error {
	cons, err := c.svc.Constraints()
	if err != nil {
		return err
	}
	c.cons = cons
	req, err := cons.ToRequest()
	if err != nil {
		return err
	}
	a := &packet.Active{Header: packet.ActiveHeader{FID: c.fid}, AllocReq: req}
	a.Header.SetType(packet.TypeAllocReq)
	c.state = Negotiating
	c.reqEpoch++
	c.PhaseRetries = 0
	if c.RetryAfter > 0 {
		epoch := c.reqEpoch
		factor := c.RetryBackoff
		if factor < 1 {
			factor = 2
		}
		limit := c.RetryCap
		if limit <= 0 {
			limit = 16 * c.RetryAfter
		}
		interval := c.RetryAfter
		var rearm func()
		rearm = func() {
			d := interval
			if j := int64(float64(d) * retryJitterFrac); j > 0 {
				d += time.Duration(c.rng.Int63n(2*j+1) - j)
			}
			c.eng.Schedule(d, func() {
				if c.state != Negotiating || c.reqEpoch != epoch {
					return
				}
				c.Retries++
				c.PhaseRetries++
				_ = c.sendControl(a)
				if next := time.Duration(float64(interval) * factor); next < limit {
					interval = next
				} else {
					interval = limit
				}
				rearm()
			})
		}
		rearm()
	}
	return c.sendControl(a)
}

// WaitOperational runs the simulation until the client is operational or
// deadline of virtual time passes.
func (c *Client) WaitOperational(deadline time.Duration) error {
	c.eng.StepUntil(c.eng.Now()+deadline, c.Operational)
	if !c.Operational() {
		return fmt.Errorf("client: fid %d stuck in %v", c.fid, c.state)
	}
	return nil
}

// RequestAndWait is RequestAllocation followed by WaitOperational: the
// whole admission handshake as one synchronous call, for drivers that own
// the engine loop.
func (c *Client) RequestAndWait(deadline time.Duration) error {
	if err := c.RequestAllocation(); err != nil {
		return err
	}
	return c.WaitOperational(deadline)
}

// Release relinquishes the allocation.
func (c *Client) Release() error {
	a := &packet.Active{Header: packet.ActiveHeader{FID: c.fid, Flags: packet.FlagRelease}}
	a.Header.SetType(packet.TypeControl)
	c.state = Negotiating
	return c.sendControl(a)
}

// sendSnapDone signals the controller that state extraction finished.
func (c *Client) sendSnapDone() {
	a := &packet.Active{Header: packet.ActiveHeader{FID: c.fid, Flags: packet.FlagSnapDone}}
	a.Header.SetType(packet.TypeControl)
	_ = c.sendControl(a)
}

// sendControl sends a protocol frame (allocation request, release,
// snapshot-done) to the switch.
func (c *Client) sendControl(a *packet.Active) error {
	if c.port == nil {
		return fmt.Errorf("client: fid %d not attached", c.fid)
	}
	raw, err := packet.EncodeFrame(&packet.Frame{
		Eth:    packet.EthHeader{Dst: c.switchMAC, Src: c.mac, EtherType: packet.EtherTypeActive},
		Active: a,
	})
	if err != nil {
		return err
	}
	c.Sent++
	c.port.Send(raw)
	return nil
}

// SendProgram activates a packet with the synthesized template and sends it
// toward dst. Outside the operational state the payload is forwarded
// unactivated (the paper pauses active transmissions while negotiating or
// managing memory). extraFlags lets callers set FlagMemSync, FlagPreload,
// or FlagNoShrink. The payload is copied; the caller may reuse it.
func (c *Client) SendProgram(name string, args [4]uint32, extraFlags uint16, payload []byte, dst packet.MAC) error {
	memsync := extraFlags&packet.FlagMemSync != 0
	wire := c.progs[name].wire
	if (c.state != Operational && !memsync) || wire == nil {
		return c.SendPlain(payload, dst)
	}
	if c.port == nil {
		return fmt.Errorf("client: fid %d not attached", c.fid)
	}
	// The opaque field echoes the grant epoch: the switch guard drops
	// program capsules whose echo does not match the installed grant. It
	// changes at reactivation, after the templates were rendered.
	h := packet.ActiveHeader{FID: c.fid, Flags: extraFlags, Opaque: uint32(c.grantEpoch)}
	h.SetType(packet.TypeProgram)
	raw := make([]byte, len(wire)+len(payload))
	copy(raw, wire)
	copy(raw[len(wire):], payload)
	packet.PatchProgram(raw, dst, h, &args)
	c.Sent++
	c.port.Send(raw)
	return nil
}

// SendPlain sends an unactivated frame.
func (c *Client) SendPlain(payload []byte, dst packet.MAC) error {
	if c.port == nil {
		return fmt.Errorf("client: fid %d not attached", c.fid)
	}
	eth := packet.EthHeader{Dst: dst, Src: c.mac, EtherType: packet.EtherTypeIPv4}
	raw := append(eth.Encode(make([]byte, 0, packet.EthHeaderSize+len(payload))), payload...)
	c.Sent++
	c.SentUnactivated++
	c.port.Send(raw)
	return nil
}

// Receive implements netsim.Endpoint.
func (c *Client) Receive(frame []byte, port *netsim.Port) {
	c.Received++
	f := &c.rx
	if packet.DecodeEndpoint(frame, f, &c.rxAct) != nil {
		return
	}
	if f.Active == nil {
		c.deliver(f)
		return
	}
	h := f.Active.Header
	if h.FID != c.fid {
		c.deliver(f)
		return
	}
	switch {
	case h.Type() == packet.TypeAllocResp && h.Flags&packet.FlagFailed != 0:
		c.state = Idle
		if c.svc.OnFailed != nil {
			c.svc.OnFailed(c)
		}
	case h.Type() == packet.TypeAllocResp && h.Flags&packet.FlagRealloc != 0:
		c.beginRealloc(f.Active.AllocResp)
	case h.Type() == packet.TypeAllocResp:
		c.applyAllocation(f.Active.AllocResp)
	case h.Type() == packet.TypeControl && h.Flags&packet.FlagRealloc != 0 && h.Flags&packet.FlagDone != 0:
		// Reactivation notice: reallocation applied, resume. The epoch the
		// realloc notice announced is live now that the tables switched.
		if c.pendingEpoch != 0 {
			c.grantEpoch = c.pendingEpoch
			c.pendingEpoch = 0
		}
		c.state = Operational
		if c.svc.OnOperational != nil {
			c.svc.OnOperational(c)
		}
	case h.Type() == packet.TypeControl && h.Flags&packet.FlagRelease != 0 && h.Flags&packet.FlagDone != 0:
		c.state = Idle
		c.placement = nil
		c.progs = map[string]mutant{}
		c.grantEpoch, c.pendingEpoch = 0, 0
	case h.Type() == packet.TypeControl && h.Flags&packet.FlagEvicted != 0:
		// Guard eviction: the allocation is gone; restart from Idle (after
		// the optional penalty interval).
		c.Evictions++
		c.state = Idle
		c.placement = nil
		c.progs = map[string]mutant{}
		c.grantEpoch, c.pendingEpoch = 0, 0
		switch {
		case c.svc.OnEvicted != nil:
			c.svc.OnEvicted(c)
		case c.svc.OnFailed != nil:
			c.svc.OnFailed(c)
		}
		if c.ReadmitAfter > 0 {
			c.eng.Schedule(c.ReadmitAfter, func() {
				if c.state == Idle {
					_ = c.RequestAllocation()
				}
			})
		}
	default:
		c.deliver(f)
	}
}

func (c *Client) deliver(f *packet.Frame) {
	if c.Handler != nil {
		c.Handler(c, f)
	}
}

// placementFromResponse reconstructs the placement from the wire response
// using the shared mutant enumeration (Section 3.3: the response names the
// mutant by index; grants are per physical stage).
func (c *Client) placementFromResponse(resp *packet.AllocResponse) (*alloc.Placement, error) {
	cons, err := c.constraints()
	if err != nil {
		return nil, err
	}
	// Stages with non-empty grants, ascending, are the access stages of
	// the selected mutant's physical projection; logical stages come from
	// re-enumerating the shared order.
	pl := &alloc.Placement{FID: c.fid, MutantIdx: int(resp.MutantIndex & packet.MutantIndexMask)}
	if len(cons.Accesses) == 0 {
		return pl, nil // stateless service: nothing granted, nothing to map
	}
	mutant, err := c.mutantByIndex(cons, int(resp.MutantIndex))
	if err != nil {
		return nil, err
	}
	pl.Mutant = mutant
	for i := range cons.Accesses {
		logical := mutant[i]
		phys := logical % c.Pipeline.NumStages
		g := resp.Grants[phys]
		if g.Empty() {
			return nil, fmt.Errorf("client: empty grant for access %d (stage %d)", i, phys)
		}
		pl.Accesses = append(pl.Accesses, alloc.AccessPlacement{
			Logical: logical,
			Range:   alloc.WordRange{Lo: g.Start, Hi: g.End},
		})
	}
	return pl, nil
}

// constraints returns the constraints the current grant answers.
func (c *Client) constraints() (*alloc.Constraints, error) {
	if c.cons == nil {
		cons, err := c.svc.Constraints()
		if err != nil {
			return nil, err
		}
		c.cons = cons
	}
	return c.cons, nil
}

// mutantByIndex enumerates the feasibility region exactly as the switch
// does (once per policy and pipeline shape) and picks the named mutant. The
// response's index encodes the policy in its top bit (PolicyBitLC), so both
// sides enumerate the same order. Placements share the returned mutant:
// nothing writes to one.
func (c *Client) mutantByIndex(cons *alloc.Constraints, idx int) (alloc.Mutant, error) {
	pol, memo := alloc.MostConstrained, &c.mutants[0]
	if uint32(idx)&PolicyBitLC != 0 {
		pol, memo = alloc.LeastConstrained, &c.mutants[1]
	}
	// Strip the policy bit and the grant-epoch bits: only the low bits name
	// the mutant in the shared enumeration order.
	idx = int(uint32(idx) & packet.MutantIndexMask)
	if c.mutantsFor != c.Pipeline {
		c.mutants, c.mutantsFor = [2][]alloc.Mutant{}, c.Pipeline
	}
	if *memo == nil {
		b, err := alloc.ComputeBounds(cons, pol, c.Pipeline.NumStages, c.Pipeline.NumIngress, c.Pipeline.MaxPasses)
		if err != nil {
			return nil, err
		}
		*memo = alloc.EnumerateMutants(b, c.Pipeline.NumStages)
	}
	ms := *memo
	if idx >= len(ms) {
		return nil, fmt.Errorf("client: mutant index %d out of range (%d mutants)", idx, len(ms))
	}
	return ms[idx], nil
}

func (c *Client) applyAllocation(resp *packet.AllocResponse) {
	pl, err := c.placementFromResponse(resp)
	if err != nil {
		c.state = Idle
		if c.svc.OnFailed != nil {
			c.svc.OnFailed(c)
		}
		return
	}
	if err := c.synthesizeAll(pl); err != nil {
		c.state = Idle
		if c.svc.OnFailed != nil {
			c.svc.OnFailed(c)
		}
		return
	}
	c.placement = pl
	c.grantEpoch = packet.EpochOf(resp.MutantIndex)
	c.pendingEpoch = 0
	c.state = Operational
	if c.svc.OnOperational != nil {
		c.svc.OnOperational(c)
	}
}

func (c *Client) beginRealloc(resp *packet.AllocResponse) {
	c.Reallocations++
	c.state = MemMgmt
	c.mmEpoch++
	// The notice precedes the table update: keep stamping the old epoch
	// (FlagMemSync extraction runs against the old grant) and switch when
	// the reactivation notice arrives.
	c.pendingEpoch = packet.EpochOf(resp.MutantIndex)
	if c.ReallocTimeout > 0 {
		epoch := c.mmEpoch
		c.eng.Schedule(c.ReallocTimeout, func() {
			if c.state != MemMgmt || c.mmEpoch != epoch {
				return
			}
			// The reactivation notice never came (lost frame or a controller
			// that died mid-window): fall back to a fresh allocation request,
			// which the controller answers idempotently.
			c.ReallocTimeouts++
			_ = c.RequestAllocation()
		})
	}
	newPl, err := c.placementFromResponse(resp)
	if err != nil {
		// Cannot interpret the new placement: release the switch anyway.
		c.sendSnapDone()
		return
	}
	old := c.placement
	finish := func() {
		// Regions move but the mutant is unchanged; re-link programs for
		// the new regions and signal the controller.
		if err := c.synthesizeAll(newPl); err == nil {
			c.placement = newPl
		}
		c.sendSnapDone()
	}
	if c.svc.OnReallocate != nil {
		c.svc.OnReallocate(c, old, newPl, finish)
	} else {
		finish()
	}
}

// synthesizeAll builds every template's mutant for the placement and renders
// the frame that carries it.
func (c *Client) synthesizeAll(pl *alloc.Placement) error {
	progs := map[string]mutant{}
	names := make([]string, 0, len(c.svc.Templates))
	for n := range c.svc.Templates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p, err := compiler.SynthesizeForPlacement(c.svc.Templates[n], pl)
		if err != nil {
			return err
		}
		if err := compiler.Verify(p, pl); err != nil {
			return err
		}
		a := packet.Active{Header: packet.ActiveHeader{FID: c.fid}, Program: p}
		a.Header.SetType(packet.TypeProgram)
		wire, err := packet.EncodeFrame(&packet.Frame{
			Eth:    packet.EthHeader{Src: c.mac, EtherType: packet.EtherTypeActive},
			Active: &a,
		})
		if err != nil {
			return err
		}
		progs[n] = mutant{prog: p, wire: wire}
	}
	c.progs = progs
	return nil
}
