package alloc

import (
	"errors"
	"fmt"
	"slices"

	"activermt/internal/packet"
)

// ToRequest converts the constraints to the wire request format.
func (c *Constraints) ToRequest() (*packet.AllocRequest, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := &packet.AllocRequest{
		ProgLen:    uint8(c.ProgLen),
		IngressIdx: int8(c.IngressIdx),
		Elastic:    c.Elastic,
		Accesses:   make([]packet.AccessReq, 0, len(c.Accesses)),
	}
	for _, a := range c.Accesses {
		r.Accesses = append(r.Accesses, packet.AccessReq{
			Index:      uint8(a.Index),
			Demand:     uint8(a.Demand),
			AlignGroup: uint8(a.AlignGroup),
		})
	}
	return r, nil
}

// FromRequest reconstructs constraints from a wire request.
func FromRequest(r *packet.AllocRequest) (*Constraints, error) {
	c := &Constraints{
		ProgLen:    int(r.ProgLen),
		IngressIdx: int(r.IngressIdx),
		Elastic:    r.Elastic,
		Accesses:   make([]Access, 0, len(r.Accesses)),
	}
	for _, a := range r.Accesses {
		c.Accesses = append(c.Accesses, Access{
			Index:      int(a.Index),
			Demand:     int(a.Demand),
			AlignGroup: int(a.AlignGroup),
		})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ErrBadResponse marks an allocation response that does not decode against
// the client's side of the contract (shape, policy or program disagree);
// activating on it would fault on the wire, so clients fail the allocation.
var ErrBadResponse = errors.New("alloc: response does not match the shared enumeration")

// ToResponse converts the placement to the wire response: the mutant by its
// index, with the policy bit so the client re-enumerates the same order and
// the grant epoch the client must echo packed in; grants per physical stage.
func (p *Placement) ToResponse(epoch uint8) *packet.AllocResponse {
	r := &packet.AllocResponse{MutantIndex: packet.PackEpoch(uint32(p.MutantIdx), epoch)}
	if p.Policy == LeastConstrained {
		r.MutantIndex |= packet.PolicyBitLC
	}
	for _, ap := range p.Accesses {
		r.Grants[ap.Physical] = packet.StageGrant{Start: ap.Range.Lo, End: ap.Range.Hi}
	}
	return r
}

// FromResponse reconstructs into dst, from the response alone, the
// placement the switch granted fid for constraints c over shape s, and the
// grant epoch (announced even when the placement does not decode). dst's
// access storage is reused; on an error dst is left partly written and nil
// is returned. mutants is s.Mutants(c, policy), which callers memoise;
// placements share its slices, as the allocator's share their resident
// app's — nothing writes to one.
func FromResponse(dst *Placement, fid uint16, r *packet.AllocResponse, c *Constraints, s Shape, mutants func(Policy) ([]Mutant, error)) (*Placement, uint8, error) {
	pl := dst
	*pl = Placement{FID: fid, MutantIdx: int(r.MutantIndex & packet.MutantIndexMask), Accesses: slices.Grow(dst.Accesses[:0], len(c.Accesses))}
	if r.MutantIndex&packet.PolicyBitLC != 0 {
		pl.Policy = LeastConstrained
	}
	epoch := packet.EpochOf(r.MutantIndex)
	if len(c.Accesses) == 0 {
		return pl, epoch, nil // stateless service: nothing granted, nothing to map
	}
	ms, err := mutants(pl.Policy)
	if err != nil {
		return nil, epoch, err
	}
	if pl.MutantIdx >= len(ms) {
		return nil, epoch, fmt.Errorf("%w: mutant index %d out of range (%d mutants)", ErrBadResponse, pl.MutantIdx, len(ms))
	}
	pl.Mutant = ms[pl.MutantIdx]
	for i, logical := range pl.Mutant {
		phys := s.Physical(logical)
		g := r.Grants[phys]
		if g.Empty() {
			return nil, epoch, fmt.Errorf("%w: empty grant for access %d (stage %d)", ErrBadResponse, i, phys)
		}
		pl.Accesses = append(pl.Accesses, AccessPlacement{Logical: logical, Physical: phys, Range: WordRange{Lo: g.Start, Hi: g.End}})
	}
	return pl, epoch, nil
}
