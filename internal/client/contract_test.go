package client_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/secapps"
)

// shippedServices is every *Service constructor of apps and secapps.
var shippedServices = []func() *client.Service{
	func() *client.Service { return apps.CacheService(&apps.Cache{}) },
	apps.CoherentCacheService,
	apps.CheetahSelectService,
	apps.CheetahRouteService,
	func() *client.Service { return apps.HeavyHitterService(apps.NewHeavyHitter(1)) },
	func() *client.Service { return apps.MemSyncService(0) },
	func() *client.Service { return apps.MemSyncService(2) },
	func() *client.Service { return secapps.SynFloodService(nil) },
	func() *client.Service { return secapps.RateLimitService(nil) },
	secapps.HXSketchService,
	secapps.HXClaimService,
}

// overWire sends the response through the frame codec, as the switch does.
func overWire(t *testing.T, fid uint16, resp *packet.AllocResponse) *packet.AllocResponse {
	t.Helper()
	a := &packet.Active{Header: packet.ActiveHeader{FID: fid, Flags: packet.FlagFromSwch}, AllocResp: resp}
	a.Header.SetType(packet.TypeAllocResp)
	raw, err := packet.EncodeFrame(&packet.Frame{Eth: packet.EthHeader{EtherType: packet.EtherTypeActive}, Active: a})
	if err != nil {
		t.Fatal(err)
	}
	f, err := packet.DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	return f.Active.AllocResp
}

// TestSwitchAndClientAgreeOnEveryPlacement is the allocation protocol's
// contract (Section 3.3) end to end, for every shipped service, both policies
// and two pipeline shapes: a placement the allocator grants, encoded to the
// wire and decoded by the client's half of the codec from the response alone,
// is the original — mutant, logical and physical stages, ranges, policy bit,
// epoch — and compiler.Link puts every template's accesses exactly on the
// mutant. A response that does not decode is the typed error the client turns
// into OnFailed.
func TestSwitchAndClientAgreeOnEveryPlacement(t *testing.T) {
	shapes := []alloc.Shape{alloc.DefaultShape(), {NumStages: 19, NumIngress: 9, MaxPasses: 2}}
	policies := []alloc.Policy{alloc.MostConstrained, alloc.LeastConstrained}

	shipped := map[*isa.Program]bool{}
	for _, mk := range shippedServices {
		svc := mk()
		for _, p := range svc.Templates {
			shipped[p] = true
		}
		cons, err := svc.Constraints()
		if err != nil {
			t.Fatalf("%s: %v", svc.Name, err)
		}
		placedSomewhere := len(cons.Accesses) == 0
		for _, shape := range shapes {
			for _, pol := range policies {
				name := fmt.Sprintf("%s/%s/%d-stage", svc.Name, pol, shape.NumStages)
				mutants := func(p alloc.Policy) ([]alloc.Mutant, error) {
					ms, _, err := shape.Mutants(cons, p)
					return ms, err
				}
				var granted []*alloc.Placement
				if len(cons.Accesses) == 0 {
					granted = []*alloc.Placement{{FID: 1}} // what the controller answers a stateless request with
				} else {
					cfg := alloc.DefaultConfig()
					cfg.Shape, cfg.Policy = shape, pol
					al, err := alloc.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Three instances, so later ones land off the first mutant
					// and elastic ones are moved: every placement handed out
					// is one the switch would put on the wire.
					for fid := uint16(1); fid <= 3; fid++ {
						res, err := al.Allocate(fid, cons)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if res.Failed {
							break // infeasible under this policy or shape
						}
						granted = append(granted, res.New)
						granted = append(granted, res.Reallocated...)
					}
				}
				for i, pl := range granted {
					placedSomewhere = true
					epoch := uint8(i%int(packet.EpochMax)) + 1
					resp := overWire(t, pl.FID, pl.ToResponse(epoch))
					if lc := resp.MutantIndex&packet.PolicyBitLC != 0; lc != (pl.Policy == alloc.LeastConstrained) {
						t.Errorf("%s: policy bit %v for %s", name, lc, pl.Policy)
					}
					got, gotEpoch, err := alloc.FromResponse(new(alloc.Placement), pl.FID, resp, cons, shape, mutants)
					if err != nil {
						t.Errorf("%s: placement %+v does not decode: %v", name, pl, err)
						continue
					}
					if !reflect.DeepEqual(got, pl) || gotEpoch != epoch {
						t.Errorf("%s: decoded %+v epoch %d, granted %+v epoch %d", name, got, gotEpoch, pl, epoch)
					}
					for j, ap := range got.Accesses {
						if ap.Logical != got.Mutant[j] || ap.Physical != ap.Logical%shape.NumStages {
							t.Errorf("%s: access %d at logical %d physical %d, mutant %v", name, j, ap.Logical, ap.Physical, got.Mutant)
						}
					}
					linked, err := compiler.Link(svc.Templates, svc.Templates[svc.Main].MemoryAccessIndices(), got)
					if err != nil {
						t.Errorf("%s: link: %v", name, err)
						continue
					}
					for tmpl := range svc.Templates {
						if at := linked[tmpl].MemoryAccessIndices(); len(at) != len(got.Mutant) || (len(at) > 0 && !reflect.DeepEqual(at, []int(got.Mutant))) {
							t.Errorf("%s: template %q accesses at %v, mutant %v", name, tmpl, at, got.Mutant)
						}
					}
				}
			}
		}
		if !placedSomewhere {
			t.Errorf("%s: placed under no policy and shape", svc.Name)
		}
	}
	for _, p := range append(apps.Programs(), secapps.Programs()...) {
		if !shipped[p] {
			t.Errorf("catalogue program %q is in no service of this table", p.Name)
		}
		delete(shipped, p)
	}
	for p := range shipped {
		t.Errorf("service template %q is not in the Programs catalogues", p.Name)
	}

	// Responses that do not decode. The 19-stage rows are the merged-L2
	// pipeline (runtime.ExtendedForwardingConfig), where a second-pass
	// access's physical stage is logical mod 19: the empty-grant error must
	// name that stage, not mod 20.
	svc := apps.CacheService(&apps.Cache{})
	cons, err := svc.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	merged := shapes[1]
	lc, _, err := merged.Mutants(cons, alloc.LeastConstrained)
	if err != nil {
		t.Fatal(err)
	}
	secondPass := 0
	for lc[secondPass][0] < merged.NumStages {
		secondPass++
	}
	for _, bad := range []struct {
		name string
		resp packet.AllocResponse
		want string
	}{
		{"index-out-of-range", packet.AllocResponse{MutantIndex: uint32(len(lc)) | packet.PolicyBitLC}, "out of range"},
		{"empty-grant-names-pipeline-stage", packet.AllocResponse{MutantIndex: uint32(secondPass) | packet.PolicyBitLC},
			fmt.Sprintf("access 0 (stage %d)", lc[secondPass][0]%merged.NumStages)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			_, _, err := alloc.FromResponse(new(alloc.Placement), 7, &bad.resp, cons, merged, func(alloc.Policy) ([]alloc.Mutant, error) { return lc, nil })
			if !errors.Is(err, alloc.ErrBadResponse) || !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("err = %v, want ErrBadResponse naming %q", err, bad.want)
			}
			failed := false
			svc.OnFailed = func(*client.Client) { failed = true }
			r := newTemplateRig(t, svc, func(cl *client.Client) { cl.Pipeline = merged }, 1)
			a := &packet.Active{AllocResp: &bad.resp}
			a.Header.SetType(packet.TypeAllocResp)
			r.deliver(a)
			if !failed || r.cl.State() != client.Idle {
				t.Errorf("client: failed=%v state=%v, want OnFailed and idle", failed, r.cl.State())
			}
		})
	}
}
