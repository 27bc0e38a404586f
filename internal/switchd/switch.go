// Package switchd implements the ActiveRMT switch: the data-plane node that
// executes active programs at its ports (wrapping the runtime)
// and the control-plane controller that serializes admissions, computes
// allocations, orchestrates reallocation (deactivate -> snapshot window ->
// table update -> reactivate, Section 4.3), and answers clients with
// allocation-response packets.
package switchd

import (
	"fmt"
	"time"

	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/runtime"
)

// Switch is the netsim endpoint for the ActiveRMT switch data plane.
type Switch struct {
	rt    *runtime.Runtime
	ctrl  *Controller
	guard *guard.Guard
	cache *packet.ProgCache

	mac   packet.MAC
	ports map[int]*netsim.Port
	hosts map[packet.MAC]int // L2 table: MAC -> port

	// uplink resolves a destination the switch's own ports do not reach:
	// the fabric's routing, a pure function of its link state. A switch
	// with an uplink is a fabric transit node: control traffic not
	// addressed to this switch is forwarded toward its destination instead
	// of being consumed, and program capsules forwarded onward carry the
	// full original program so the next on-path device re-executes from the
	// top (PHV state does not cross devices). Nil on a standalone switch.
	uplink func(dst packet.MAC) (int, bool)

	// Per-frame scratch of the program-capsule path: the decoded ingress
	// capsule, the output frame being encoded, and the relay-restored
	// capsule. Every output is encoded before Receive returns, so nothing
	// outlives the frame that filled them.
	inAct, restored packet.Active
	req             packet.AllocRequest // inAct's allocation request; Digest copies it
	outFrame        packet.Frame
	tx              []byte // every frame the switch encodes; the port copies it

	// probeSink receives link-health probe replies (FlagProbe|FlagFromSwch
	// control frames addressed to this switch) — the fabric health monitor
	// registers one per leaf.
	probeSink func(f *packet.Frame, port *netsim.Port)

	// Counters.
	FramesIn, FramesForwarded, FramesReturned, FramesDropped uint64
	FramesConsumed                                           uint64 // outputs addressed to this switch: ended here, not dropped
	UnknownMAC, GuardDropped                                 uint64
	ControlTransit, RelayedPrograms                          uint64
	ProbesEchoed, ProbeReplies                               uint64
}

// ProgCache returns the switch's decoded-program cache, keyed by program
// bytes: a grant change needs no invalidation, because the runtime drops its
// compiled per-FID plans on every commit.
func (s *Switch) ProgCache() *packet.ProgCache { return s.cache }

// Runtime exposes the data-plane runtime.
func (s *Switch) Runtime() *runtime.Runtime { return s.rt }

// MAC returns the switch's own address.
func (s *Switch) MAC() packet.MAC { return s.mac }

// AddPort registers a port (created via netsim.Connect with this switch as
// the endpoint) and the host MAC reachable through it.
func (s *Switch) AddPort(p *netsim.Port, host packet.MAC) {
	s.ports[p.Num] = p
	s.hosts[host] = p.Num
}

// SetUplink makes the switch a fabric transit node whose routes to
// destinations beyond its own ports come from fn (see the uplink field).
func (s *Switch) SetUplink(fn func(dst packet.MAC) (int, bool)) { s.uplink = fn }

// SetProbeSink registers the receiver for link-health probe replies.
func (s *Switch) SetProbeSink(fn func(f *packet.Frame, port *netsim.Port)) { s.probeSink = fn }

// Port returns a registered port by number (the fabric uses this to target
// link-level fault injectors at specific uplinks).
func (s *Switch) Port(num int) (*netsim.Port, bool) {
	p, ok := s.ports[num]
	return p, ok
}

// SendProbe emits a link-health probe out the given port toward dst: a
// TypeControl frame flagged FlagProbe whose Opaque word carries the caller's
// correlation token. The probed switch echoes it back in the data plane.
func (s *Switch) SendProbe(pnum int, dst packet.MAC, token uint32) error {
	p, ok := s.ports[pnum]
	if !ok {
		return fmt.Errorf("switchd: no port %d for probe", pnum)
	}
	a := &packet.Active{}
	a.Header.SetType(packet.TypeControl)
	a.Header.Flags |= packet.FlagProbe
	a.Header.Opaque = token
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: dst, Src: s.mac, EtherType: packet.EtherTypeActive},
		Active: a,
	}
	raw, err := packet.AppendFrame(s.tx[:0], f)
	if err != nil {
		return err
	}
	s.tx = raw
	p.Send(raw)
	return nil
}

// Receive implements netsim.Endpoint: the switch pipeline entry point. The
// frame is only read: a plain frame is forwarded as the received bytes, and
// a program capsule is decoded into switch-owned scratch that aliases it.
func (s *Switch) Receive(frame []byte, port *netsim.Port) {
	s.FramesIn++
	eth, rest, err := packet.DecodeEth(frame)
	if err != nil {
		s.FramesDropped++
		return
	}
	if eth.EtherType != packet.EtherTypeActive {
		// Plain traffic: baseline L2 forwarding. A frame hairpinned back
		// out its ingress port turns around after the ingress pipeline
		// (half a pass) — the no-processing echo baseline of Figure 8b.
		lat := s.rt.Device().Config().PassLatency
		pnum, ok := s.route(eth.Dst)
		if !ok {
			return
		}
		if pnum == port.Num {
			lat /= 2
		}
		if p := s.egress(pnum); p != nil {
			s.FramesForwarded++
			p.SendAfter(lat, frame)
		}
		return
	}
	// Program capsules decode through the cache: one ISA decode + structural
	// validation per program version, parse-once for the guard downstream.
	a := &s.inAct
	a.AllocReq = &s.req
	if err := packet.DecodeInto(rest, a, s.cache); err != nil {
		s.FramesDropped++
		return
	}
	if a.Header.Type() == packet.TypeProgram {
		s.execute(eth, a, port)
		return
	}
	s.control(eth, a, port)
}

// control handles a control frame (a, in switch scratch). Control traffic is
// rare. A digest takes what the controller needs by value; a frame that
// travels on or reaches the probe sink gets its own copy, since the decode
// scratch a aliases is reused by the next frame.
func (s *Switch) control(eth packet.EthHeader, a *packet.Active, port *netsim.Port) {
	own := func() *packet.Frame {
		ca := *a
		return &packet.Frame{Eth: eth, Active: &ca, Inner: ca.Payload}
	}
	switch a.Header.Type() {
	case packet.TypeAllocReq, packet.TypeControl:
		// Control traffic reaches the controller as a digest. In a fabric,
		// only the switch a control frame addresses consumes it; a transit
		// node passes it along like plain traffic.
		if s.uplink != nil && eth.Dst != s.mac {
			s.ControlTransit++
			s.forward(own(), s.rt.Device().Config().PassLatency)
			return
		}
		if a.Header.Flags&packet.FlagProbe != 0 {
			// Link-health probes never reach the controller: a probe is
			// answered by the data plane (so a crashed control plane does
			// not read as a dead link), and a reply goes to the probe sink.
			if a.Header.Flags&packet.FlagFromSwch != 0 {
				s.ProbeReplies++
				if s.probeSink != nil {
					s.probeSink(own(), port)
				}
				return
			}
			s.ProbesEchoed++
			reply := *a
			reply.Header.Flags |= packet.FlagFromSwch
			of := &packet.Frame{
				Eth:    packet.EthHeader{Dst: eth.Src, Src: s.mac, EtherType: packet.EtherTypeActive},
				Active: &reply,
			}
			s.sendOut(port.Num, of, s.rt.Device().Config().PassLatency/2)
			return
		}
		s.ctrl.Digest(eth.Src, a.Header, a.AllocReq)
	case packet.TypeAllocResp:
		// Allocation responses originate at switches; a standalone switch
		// drops one arriving on a port, but a fabric transit node carries
		// responses from an upstream switch toward the client host.
		if s.uplink != nil && eth.Dst != s.mac {
			s.ControlTransit++
			s.forward(own(), s.rt.Device().Config().PassLatency)
			return
		}
		s.FramesDropped++
	default:
		s.FramesDropped++
	}
}

// execute runs one program capsule (a, in switch scratch) through the guard
// and the runtime and emits its outputs.
func (s *Switch) execute(eth packet.EthHeader, a *packet.Active, in *netsim.Port) {
	if !s.guard.CheckProgram(a, in.Num) {
		s.FramesDropped++
		s.GuardDropped++
		return
	}
	for _, out := range s.rt.ExecuteProgram(a) {
		if out.Dropped {
			s.FramesDropped++
			continue
		}
		of := &s.outFrame
		*of = packet.Frame{Eth: eth, Active: out.Active, Inner: out.Active.Payload}
		lat := out.Latency
		if s.uplink != nil && !out.ToSender && out.Active.Program != nil && out.Active != a {
			// Fabric relay: a capsule forwarded onward re-executes from the
			// top at the next on-path device — PHV state does not cross
			// switches, so the executed prefix must ride along un-stripped.
			// The original decoded program is immutable under execution, so
			// reattaching it restores the capsule to its ingress form.
			s.restored = *out.Active
			s.restored.Program = a.Program
			s.restored.ValidState = a.ValidState
			of.Active = &s.restored
			s.RelayedPrograms++
		}
		switch {
		case out.ToSender:
			// RTS: swap addresses and return via the ingress port.
			of.Eth.Dst, of.Eth.Src = eth.Src, s.mac
			if s.sendOut(in.Num, of, lat) {
				s.FramesReturned++
			}
		case out.DstSet:
			if s.sendOut(int(out.Dst), of, lat) {
				s.FramesForwarded++
			}
		default:
			s.forward(of, lat)
		}
	}
}

// lookup resolves the egress port number for a destination MAC: its own
// ports first, then the uplink.
func (s *Switch) lookup(dst packet.MAC) (int, bool) {
	if pnum, ok := s.hosts[dst]; ok {
		return pnum, true
	}
	if s.uplink != nil {
		return s.uplink(dst)
	}
	return 0, false
}

// route is lookup counting a drop when the MAC is unknown.
func (s *Switch) route(dst packet.MAC) (int, bool) {
	pnum, ok := s.lookup(dst)
	if !ok {
		s.UnknownMAC++
		s.FramesDropped++
	}
	return pnum, ok
}

// egress returns a registered port, counting a drop when there is none.
func (s *Switch) egress(pnum int) *netsim.Port {
	p, ok := s.ports[pnum]
	if !ok {
		s.FramesDropped++
		return nil
	}
	return p
}

// forward sends a frame toward its destination MAC after the pipeline
// latency. A frame addressed to the switch itself ends here, consumed.
func (s *Switch) forward(f *packet.Frame, latency time.Duration) {
	if f.Eth.Dst == s.mac {
		s.FramesConsumed++
		return
	}
	if pnum, ok := s.route(f.Eth.Dst); ok && s.sendOut(pnum, f, latency) {
		s.FramesForwarded++
	}
}

// sendOut encodes f and hands it to port pnum. A frame has one fate: true
// means the port took it and the caller counts it forwarded or returned;
// false means it was counted dropped here (no such port, or it does not
// encode).
func (s *Switch) sendOut(pnum int, f *packet.Frame, latency time.Duration) bool {
	p := s.egress(pnum)
	if p == nil {
		return false
	}
	raw, err := packet.AppendFrame(s.tx[:0], f)
	if err != nil {
		s.FramesDropped++
		return false
	}
	s.tx = raw
	p.SendAfter(latency, raw)
	return true
}

// SendToHost lets the controller emit a frame toward a host MAC (allocation
// responses and reactivation notices).
func (s *Switch) SendToHost(dst packet.MAC, a *packet.Active) error {
	pnum, ok := s.lookup(dst)
	if !ok {
		return fmt.Errorf("switchd: no port for host %s", dst)
	}
	f := &packet.Frame{
		Eth:    packet.EthHeader{Dst: dst, Src: s.mac, EtherType: packet.EtherTypeActive},
		Active: a,
		Inner:  a.Payload,
	}
	raw, err := packet.AppendFrame(s.tx[:0], f)
	if err != nil {
		return err
	}
	s.tx = raw
	s.ports[pnum].Send(raw)
	return nil
}
