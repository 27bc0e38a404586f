package apps

import (
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
)

// The Cheetah load balancer (Appendix B.2) splits into two active
// services, mirroring the paper's two functions:
//
//   - server selection, carried on TCP SYNs: stateful (round-robin counter
//     plus the VIP server pool in switch memory); it picks a server, routes
//     the SYN there, and computes the stateless "cookie" = hash(5-tuple) ^
//     serverPort that later packets carry;
//   - flow routing, carried on all other packets: completely stateless —
//     it rehashes the 5-tuple and XORs the cookie to recover the port, so
//     it needs no switch memory at all (admitted through the stateless
//     path).

// lbSelectProg is the server-selection program. Accesses: the round-robin
// counter (index 2, one block) and the VIP pool (index 7, two blocks = 512
// servers, the paper's sizing). SET_DST at index 8 pins the program to the
// ingress pipeline.
var lbSelectProg = isa.MustAssemble("lb-select", `
.arg CTR 3
COPY_HASHDATA_5TUPLE
MAR_LOAD $CTR       // round-robin counter address (client-translated)
MEM_INCREMENT       // MBR = ticket
COPY_MAR_MBR        // MAR <- ticket
MBR_LOAD 0          // pool-size mask (pow2-1)
BIT_AND_MAR_MBR     // MAR = ticket & mask = pool index
ADDR_OFFSET         // MAR += pool region base
MEM_READ            // MBR = server port
SET_DST             // route the SYN to the selected server
COPY_MBR2_MBR       // MBR2 <- port
MBR_LOAD 2          // salt
COPY_HASHDATA_MBR 2
HASH 1              // MAR = h(5-tuple, salt); fixed hash unit 1
COPY_MBR_MAR        // MBR = h
MBR_EQUALS_MBR2     // MBR = h ^ port = cookie
MBR_STORE 1         // cookie rides back in data[1]
RETURN
`)

// lbSetupProg initializes LB state over the data plane: one packet zeroes
// the counter and writes one VIP pool slot (the RTS acknowledges the
// write). Shares the [2, 7] access skeleton with lb-select.
var lbSetupProg = isa.MustAssemble("lb-setup", `
.arg CTR 3
.arg SLOT 2
NOP
MAR_LOAD $CTR
MEM_WRITE           // counter <- MBR (0 unless preloaded)
MBR_LOAD 0          // server port value
NOP
NOP
MAR_LOAD $SLOT      // pool slot address (client-translated)
MEM_WRITE           // pool[slot] <- port
RTS                 // acknowledge
RETURN
`)

// lbRouteProg is the stateless flow-routing program (Listing 4's
// approach): port = hash(5-tuple, salt-less here) XOR cookie.
var lbRouteProg = isa.MustAssemble("lb-route", `
COPY_HASHDATA_5TUPLE
MBR_LOAD 2          // salt
COPY_HASHDATA_MBR 2
HASH 1              // MAR = h; the same fixed unit the selection used
COPY_MBR_MAR        // MBR = h
MBR2_LOAD 1         // cookie
MBR_EQUALS_MBR2     // MBR = h ^ cookie = port
SET_DST
RETURN
`)

// LBPoolBlocks is the VIP pool demand: 2 blocks = 512 virtual IPs
// (Section 6.1's load-balancer sizing).
const LBPoolBlocks = 2

// LBCounterBlocks holds the round-robin counter.
const LBCounterBlocks = 1

// Cheetah is the load-balancer application: a stateful selection service
// and a stateless routing service.
type Cheetah struct {
	Select *client.Client // stateful: counter + pool
	Route  *client.Client // stateless

	Salt    uint32
	PoolLen uint32 // must be a power of two

	// cookies: flow hash -> cookie learned from SYN responses.
	cookies map[uint64]uint32

	SYNsSent, Routed uint64
}

// CheetahSelectService defines the stateful half.
func CheetahSelectService() *client.Service {
	return &client.Service{
		Name: "lb-select",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main":  lbSelectProg,
			"setup": lbSetupProg,
		},
		Specs: []compiler.AccessSpec{
			{Demand: LBCounterBlocks},
			{Demand: LBPoolBlocks},
		},
		Elastic: false,
	}
}

// CheetahRouteService defines the stateless half.
func CheetahRouteService() *client.Service {
	return &client.Service{
		Name: "lb-route",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main": lbRouteProg,
		},
		Elastic: false,
	}
}

// NewCheetah returns an LB app for a pool of poolLen servers (power of
// two).
func NewCheetah(salt uint32, poolLen uint32) *Cheetah {
	return &Cheetah{Salt: salt, PoolLen: poolLen, cookies: make(map[uint64]uint32)}
}

// counterAddr returns the translated round-robin counter address.
func (c *Cheetah) counterAddr() (uint32, bool) {
	pl := c.Select.Placement()
	if pl == nil {
		return 0, false
	}
	return pl.Accesses[0].Range.Lo, true
}

// poolBase returns the translated VIP pool base.
func (c *Cheetah) poolBase() (uint32, bool) {
	pl := c.Select.Placement()
	if pl == nil {
		return 0, false
	}
	return pl.Accesses[1].Range.Lo, true
}

// SetupPool writes the server pool (switch egress port numbers) into switch
// memory over the data plane. ports[i] becomes pool slot i.
func (c *Cheetah) SetupPool(ports []uint32) {
	base, ok := c.poolBase()
	ctr, ok2 := c.counterAddr()
	if !ok || !ok2 {
		return
	}
	for i, p := range ports {
		_ = c.Select.SendProgram("setup",
			[4]uint32{p, 0, base + uint32(i), ctr},
			0, nil, c.Select.MAC())
	}
}

// ActivateSYN activates a SYN packet with the selection program. The
// reply's cookie is learned by LearnCookie.
func (c *Cheetah) ActivateSYN(payload []byte, dst packet.MAC) {
	ctr, ok := c.counterAddr()
	if !ok {
		_ = c.Select.SendPlain(payload, dst)
		return
	}
	c.SYNsSent++
	_ = c.Select.SendProgram("main",
		[4]uint32{c.PoolLen - 1, 0, c.Salt, ctr},
		0, payload, dst)
}

// LearnCookie records the cookie computed by the switch for a flow (read
// from a forwarded selection packet or echoed by the server).
func (c *Cheetah) LearnCookie(tuple packet.FiveTuple, cookie uint32) {
	c.cookies[flowKey(tuple)] = cookie
}

// Cookie returns the learned cookie for a flow.
func (c *Cheetah) Cookie(tuple packet.FiveTuple) (uint32, bool) {
	v, ok := c.cookies[flowKey(tuple)]
	return v, ok
}

// ActivateData activates a non-SYN packet with the stateless routing
// program; without a learned cookie the packet goes unactivated.
func (c *Cheetah) ActivateData(tuple packet.FiveTuple, payload []byte, dst packet.MAC) {
	cookie, ok := c.Cookie(tuple)
	if !ok {
		_ = c.Route.SendPlain(payload, dst)
		return
	}
	c.Routed++
	_ = c.Route.SendProgram("main",
		[4]uint32{0, cookie, c.Salt, 0},
		0, payload, dst)
}

func flowKey(t packet.FiveTuple) uint64 {
	w := t.Words()
	return uint64(w[0])<<32 ^ uint64(w[1])<<16 ^ uint64(w[2]) ^ uint64(w[3])<<48
}
