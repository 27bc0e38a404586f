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
	"slices"
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
	// switch. newPl is the placement that will apply afterward; both are
	// the client's buffers (see Placement).
	OnReallocate func(c *Client, oldPl, newPl *alloc.Placement, done func())
	// OnFailed fires when an allocation request is rejected.
	OnFailed func(c *Client)
	// OnEvicted fires when the switch guard evicts the tenant for isolation
	// violations; the client is back in Idle with no placement. When nil,
	// OnFailed is used as the fallback notification.
	OnEvicted func(c *Client)
}

// Constraints derives the service's allocation constraints from its main
// template and verifies all templates share the access skeleton. A client
// does this once (New); what may change between two of its requests is
// re-read by demands.
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
	slices.Sort(names)
	for _, n := range names {
		p := s.Templates[n]
		if got := p.MemoryAccessIndices(); !slices.Equal(got, want) {
			return nil, fmt.Errorf("client: template %q accesses at %v, main's at %v", n, got, want)
		}
		if err := compiler.Translations(p, cons); err != nil {
			return nil, err
		}
		cons.ProgLen = max(cons.ProgLen, p.Len())
		if ing := p.IngressOnlyIndices(); len(ing) > 0 {
			cons.IngressIdx = max(cons.IngressIdx, ing[len(ing)-1])
		}
	}
	return cons, nil
}

// demands re-reads into cons what a service may change between two requests
// — elasticity and the per-access demands (fabric placement halves its ask on
// rejection); the templates, and so the skeleton, do not change.
func (s *Service) demands(cons *alloc.Constraints) {
	cons.Elastic = s.Elastic
	for i, sp := range s.Specs {
		cons.Accesses[i].Demand, cons.Accesses[i].AlignGroup = sp.Demand, sp.AlignGroup
	}
}

// Pipeline is the switch pipeline shape the client compiles against; it must
// equal the switch's for the shared mutant enumeration to agree.
type Pipeline = alloc.Shape

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
	// be lost); it doubles after each retry up to 16x. Zero disables retries.
	RetryAfter time.Duration
	// ReallocTimeout bounds the memory-management window: a client stuck
	// waiting for the reactivation notice (lost notice, crashed controller)
	// re-enters negotiation after this long. Re-requesting is safe — the
	// controller answers retransmitted requests idempotently. Zero disables
	// the escape.
	ReallocTimeout time.Duration

	state     State
	placement *alloc.Placement
	pls       [2]alloc.Placement // decode buffers: a response fills the one placement does not name
	// progs are linked for (linkPol, linkMut), the templates' access
	// skeleton accIdx; they outlive a release (see link).
	progs   map[string]mutant
	linkPol alloc.Policy
	linkMut alloc.Mutant
	accIdx  []int

	// Receive decodes into rx, rxAct and rxResp, which a Handler sees for
	// the duration of its call; sends build their frame in tx.
	rx     packet.Frame
	rxAct  packet.Active
	rxResp packet.AllocResponse
	tx     []byte

	// Fire's state: the request a retry re-sends after retryIn, and the
	// placement done (finishRealloc, bound once) applies.
	req     packet.Active
	retryIn time.Duration
	newPl   *alloc.Placement
	done    func()

	// cons is the service's constraints — skeleton checked and extracted
	// once by New (consErr if that failed), demands as of the latest
	// request — and mutants the shared enumeration, memoised per policy and
	// Pipeline value (Pipeline is assigned after New): every grant and
	// reallocation notice is read against them, and the enumeration depends
	// on nothing a request or grant changes.
	cons    *alloc.Constraints
	consErr error
	mutants map[enumKey][]alloc.Mutant

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

// enumKey names one shared enumeration of a client's skeleton.
type enumKey struct {
	shape  Pipeline
	policy alloc.Policy
}

// Retry policy: the interval doubles after each retry up to 16x RetryAfter,
// each randomized by +/-10% so clients that start together do not retry in
// lockstep.
const (
	retryBackoff    = 2
	retryCapFactor  = 16
	retryJitterFrac = 0.1
)

// New builds a client for fid running svc.
func New(eng *netsim.Engine, fid uint16, mac, switchMAC packet.MAC, svc *Service) *Client {
	if svc.Main == "" {
		svc.Main = "main"
	}
	c := &Client{
		eng:       eng,
		mac:       mac,
		switchMAC: switchMAC,
		fid:       fid,
		svc:       svc,
		Pipeline:  alloc.DefaultShape(),
		mutants:   map[enumKey][]alloc.Mutant{},
	}
	c.cons, c.consErr = svc.Constraints()
	if c.consErr == nil {
		c.accIdx = svc.Templates[svc.Main].MemoryAccessIndices()
	}
	c.done = c.finishRealloc
	return c
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

// Placement returns the current allocation (nil before admission): one of
// two buffers, unchanged until the next grant; a caller keeping it longer
// copies it.
func (c *Client) Placement() *alloc.Placement { return c.placement }

// Engine returns the simulation engine (for app timers).
func (c *Client) Engine() *netsim.Engine { return c.eng }

// Service returns the service definition.
func (c *Client) Service() *Service { return c.svc }

// Program returns the synthesized template by name (nil before admission).
func (c *Client) Program(name string) *isa.Program {
	if c.placement == nil {
		return nil // progs outlive a release
	}
	return c.progs[name].prog
}

// Epoch returns the grant epoch the client currently stamps on capsules
// (0 before first admission).
func (c *Client) Epoch() uint8 { return c.grantEpoch }

// RequestAllocation sends the allocation request derived from the service's
// constraints, retrying while unanswered if RetryAfter is set.
func (c *Client) RequestAllocation() error {
	if c.consErr != nil {
		return c.consErr
	}
	c.svc.demands(c.cons)
	req, err := c.cons.ToRequest()
	if err != nil {
		return err
	}
	c.req = packet.Active{Header: packet.ActiveHeader{FID: c.fid}, AllocReq: req}
	c.req.Header.SetType(packet.TypeAllocReq)
	c.state = Negotiating
	c.reqEpoch++
	c.PhaseRetries = 0
	if c.RetryAfter > 0 {
		c.retryIn = c.RetryAfter
		c.armRetry()
	}
	return c.sendControl(&c.req)
}

// armRetry arms the current request's retry timer after retryIn, jittered.
func (c *Client) armRetry() {
	d := c.retryIn
	if j := int64(float64(d) * retryJitterFrac); j > 0 {
		if c.rng == nil {
			// Deterministic per-FID jitter source, seeded at its first
			// draw: same topology, same seed, same retry trace.
			c.rng = rand.New(rand.NewSource(int64(c.fid)*2654435761 + 1))
		}
		d += time.Duration(c.rng.Int63n(2*j+1) - j)
	}
	c.eng.ScheduleTimer(d, c, c.reqEpoch<<1)
}

// Fire implements netsim.Timer: an even arg is the retry timer of request
// epoch arg>>1, an odd one the realloc timeout of memory-management window
// arg>>1. Either does nothing once its request or window is over.
func (c *Client) Fire(arg uint64) {
	switch epoch := arg >> 1; {
	case arg&1 == 0 && c.state == Negotiating && c.reqEpoch == epoch:
		c.Retries++
		c.PhaseRetries++
		_ = c.sendControl(&c.req)
		c.retryIn = min(retryBackoff*c.retryIn, retryCapFactor*c.RetryAfter)
		c.armRetry()
	case arg&1 == 1 && c.state == MemMgmt && c.mmEpoch == epoch:
		// The reactivation notice never came (lost frame or a controller
		// that died mid-window): fall back to a fresh allocation request,
		// which the controller answers idempotently.
		c.ReallocTimeouts++
		_ = c.RequestAllocation()
	}
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
	raw, err := packet.AppendFrame(c.tx[:0], &packet.Frame{
		Eth:    packet.EthHeader{Dst: c.switchMAC, Src: c.mac, EtherType: packet.EtherTypeActive},
		Active: a,
	})
	if err != nil {
		return err
	}
	c.tx = raw
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
	if (c.state != Operational && !memsync) || wire == nil || c.placement == nil {
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
	c.tx = append(append(c.tx[:0], wire...), payload...)
	packet.PatchProgram(c.tx, dst, h, &args)
	c.Sent++
	c.port.Send(c.tx)
	return nil
}

// SendPlain sends an unactivated frame.
func (c *Client) SendPlain(payload []byte, dst packet.MAC) error {
	if c.port == nil {
		return fmt.Errorf("client: fid %d not attached", c.fid)
	}
	eth := packet.EthHeader{Dst: dst, Src: c.mac, EtherType: packet.EtherTypeIPv4}
	c.tx = append(eth.Encode(c.tx[:0]), payload...)
	c.Sent++
	c.SentUnactivated++
	c.port.Send(c.tx)
	return nil
}

// Receive implements netsim.Endpoint.
func (c *Client) Receive(frame []byte, port *netsim.Port) {
	c.Received++
	f := &c.rx
	c.rxAct.AllocResp = &c.rxResp
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
		c.grantEpoch, c.pendingEpoch = 0, 0
	case h.Type() == packet.TypeControl && h.Flags&packet.FlagEvicted != 0:
		// Guard eviction: the allocation is gone; restart from Idle. A
		// service that wants back in requests again from OnEvicted.
		c.Evictions++
		c.state = Idle
		c.placement = nil
		c.grantEpoch, c.pendingEpoch = 0, 0
		switch {
		case c.svc.OnEvicted != nil:
			c.svc.OnEvicted(c)
		case c.svc.OnFailed != nil:
			c.svc.OnFailed(c)
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

// decode reads an allocation response or reallocation notice against the
// client's side of the contract (alloc.FromResponse): its constraints, its
// pipeline shape and the shared enumeration, made exactly as the switch makes
// it, once per policy and shape. It decodes into the placement buffer the
// current placement is not in.
func (c *Client) decode(resp *packet.AllocResponse) (*alloc.Placement, uint8, error) {
	if c.consErr != nil {
		return nil, 0, c.consErr
	}
	dst := &c.pls[0]
	if dst == c.placement {
		dst = &c.pls[1]
	}
	return alloc.FromResponse(dst, c.fid, resp, c.cons, c.Pipeline, func(pol alloc.Policy) (ms []alloc.Mutant, err error) {
		key := enumKey{c.Pipeline, pol}
		if ms = c.mutants[key]; ms == nil {
			ms, _, err = c.Pipeline.Mutants(c.cons, pol)
			c.mutants[key] = ms
		}
		return ms, err
	})
}

func (c *Client) applyAllocation(resp *packet.AllocResponse) {
	pl, epoch, err := c.decode(resp)
	if err == nil {
		err = c.link(pl)
	}
	if err != nil {
		c.state = Idle
		if c.svc.OnFailed != nil {
			c.svc.OnFailed(c)
		}
		return
	}
	c.placement = pl
	c.grantEpoch = epoch
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
	newPl, announced, err := c.decode(resp)
	// The notice precedes the table update: keep stamping the old epoch
	// (FlagMemSync extraction runs against the old grant) and switch when
	// the reactivation notice arrives.
	c.pendingEpoch = announced
	if c.ReallocTimeout > 0 {
		c.eng.ScheduleTimer(c.ReallocTimeout, c, c.mmEpoch<<1|1)
	}
	if err != nil {
		// Cannot interpret the new placement: release the switch anyway.
		c.sendSnapDone()
		return
	}
	c.newPl = newPl
	if c.svc.OnReallocate != nil {
		c.svc.OnReallocate(c, c.placement, newPl, c.done)
	} else {
		c.finishRealloc()
	}
}

// finishRealloc is a reallocation's done. Regions move, the mutant normally
// does not: link checks the new placement (re-linking only a changed
// mutant); then it signals the controller.
func (c *Client) finishRealloc() {
	if err := c.link(c.newPl); err == nil {
		c.placement = c.newPl
	}
	c.sendSnapDone()
}

// link checks the placement and, unless the last linked programs have its
// policy and mutant, synthesizes every template's mutant and renders the frame
// that carries it. Programs and frames depend on the templates, the mutant,
// the FID and the MAC, never on the ranges: a reallocation that only moved
// regions, or a re-admission on the mutant held before a release, keeps
// them. c.placement is set only after link succeeds, so it names the mutant
// c.progs holds.
func (c *Client) link(pl *alloc.Placement) error {
	if len(c.progs) > 0 && c.linkPol == pl.Policy && slices.Equal(c.linkMut, pl.Mutant) {
		return compiler.CheckPlacement(pl)
	}
	linked, err := compiler.Link(c.svc.Templates, c.accIdx, pl)
	if err != nil {
		return err
	}
	progs := make(map[string]mutant, len(linked))
	for n, p := range linked {
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
	c.progs, c.linkPol, c.linkMut = progs, pl.Policy, pl.Mutant
	return nil
}
