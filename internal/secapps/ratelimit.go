package secapps

import (
	"activermt/internal/client"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// RateLimiter drives the per-tenant token-bucket exemplar: every admitted
// packet increments the tenant's bucket in switch memory and is dropped in
// the pipeline once the window spend exceeds Limit; the control plane opens
// a new window by resetting the bucket (a windowed bucket — the switch has
// no timers, so the refill cadence lives with the driver).
//
// Refills are fire-and-forget: a lost refill only under-admits (the bucket
// stays spent), never over-admits, so enforcement is an upper bound even
// under chaos-injected loss.
type RateLimiter struct {
	Client *client.Client

	// Limit is the per-window packet budget carried in every check capsule.
	Limit uint32

	// Offered counts packets offered per tenant since construction;
	// OfferedWindow since that tenant's last refill.
	Offered       map[uint32]uint64
	OfferedWindow map[uint32]uint64

	Refills uint64
}

// NewRateLimiter returns a limiter enforcing the given per-window budget.
func NewRateLimiter(limit uint32) *RateLimiter {
	return &RateLimiter{
		Limit:         limit,
		Offered:       make(map[uint32]uint64),
		OfferedWindow: make(map[uint32]uint64),
	}
}

// Bind attaches the shim client.
func (r *RateLimiter) Bind(cl *client.Client) { r.Client = cl }

// WireTelemetry registers the limiter's counters, read from Offered and
// Refills.
func (r *RateLimiter) WireTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("activermt_secapps_rl_offered_total", "Packets offered through the rate limiter", func() (n uint64) {
		for _, v := range r.Offered {
			n += v
		}
		return n
	})
	reg.Counter("activermt_secapps_rl_refills_total", "Rate-limiter window refills issued", &r.Refills)
}

// Send offers one packet for the tenant; the switch forwards it to dst only
// while the tenant's window spend is within Limit.
func (r *RateLimiter) Send(tenant uint32, payload []byte, dst [6]byte) {
	r.Offered[tenant]++
	r.OfferedWindow[tenant]++
	// data[3]=1 marks a data capsule, so delivery sinks can tell admitted
	// traffic from fire-and-forget refills arriving at the same port.
	_ = r.Client.SendProgram("check", [4]uint32{tenant, 0, r.Limit, 1}, 0, payload, dst)
}

// Refill opens a new window for the tenant by resetting its bucket. The
// reset capsule forwards to dst after the write (any sink will do).
func (r *RateLimiter) Refill(tenant uint32, dst [6]byte) {
	r.Refills++
	r.OfferedWindow[tenant] = 0
	_ = r.Client.SendProgram("refill", [4]uint32{tenant, 0, 0, 0}, 0, nil, dst)
}

// RLSink is the delivery-side ground truth for enforcement scoring: a
// netsim endpoint that counts delivered capsules per tenant (read from
// data[0] of the forwarded capsule, so no payload protocol is needed).
type RLSink struct {
	mac  packet.MAC
	port *netsim.Port

	// Receive decodes into rx and rxAct (fields, not locals: the Frame points
	// at the Active, which would move a local to the heap per frame).
	rx    packet.Frame
	rxAct packet.Active

	// Delivered counts capsules that survived the limiter, per tenant.
	Delivered map[uint32]uint64
	Total     uint64
}

// NewRLSink returns a counting sink.
func NewRLSink(mac packet.MAC) *RLSink {
	return &RLSink{mac: mac, Delivered: make(map[uint32]uint64)}
}

// MAC returns the sink address.
func (s *RLSink) MAC() packet.MAC { return s.mac }

// Attach wires the NIC.
func (s *RLSink) Attach(p *netsim.Port) { s.port = p }

// Receive implements netsim.Endpoint.
func (s *RLSink) Receive(frame []byte, port *netsim.Port) {
	f := &s.rx
	if packet.DecodeEndpoint(frame, f, &s.rxAct) != nil || f.Active == nil {
		return
	}
	if f.Active.Args[3] != 1 {
		return // refill or foreign capsule, not admitted data
	}
	s.Delivered[f.Active.Args[0]]++
	s.Total++
}
