package apps

import (
	"activermt/internal/isa"
	"activermt/internal/netsim"
	"activermt/internal/packet"
)

// EchoServer reflects every frame back to its sender, preserving active
// headers and data fields. It models a Cheetah backend whose shim echoes
// the load-balancer cookie back to the connection originator (Appendix
// B.2: the cookie is computed on the SYN and carried by the peer
// afterwards).
type EchoServer struct {
	eng  *netsim.Engine
	port *netsim.Port
	mac  packet.MAC

	Echoed uint64
}

// NewEchoServer returns an echo endpoint.
func NewEchoServer(eng *netsim.Engine, mac packet.MAC) *EchoServer {
	return &EchoServer{eng: eng, mac: mac}
}

// Attach wires the NIC.
func (s *EchoServer) Attach(p *netsim.Port) { s.port = p }

// MAC returns the server address.
func (s *EchoServer) MAC() packet.MAC { return s.mac }

// Receive implements netsim.Endpoint.
func (s *EchoServer) Receive(frame []byte, port *netsim.Port) {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return
	}
	f.Eth.Dst, f.Eth.Src = f.Eth.Src, s.mac
	if f.Active != nil {
		// Do not re-execute on the way back.
		f.Active.Program = nil
		f.Active.Header.SetType(packet.TypeControl)
		// Keep the data fields visible to the original sender by echoing
		// them in a fresh program-typed packet without instructions.
		a := &packet.Active{Header: f.Active.Header, Args: f.Active.Args, Payload: f.Inner}
		a.Header.SetType(packet.TypeProgram)
		a.Program = &isa.Program{}
		f.Active = a
	}
	raw, err := packet.EncodeFrame(f)
	if err != nil {
		return
	}
	s.Echoed++
	s.port.Send(raw)
}
