package secapps

import (
	"testing"

	"activermt/internal/alloc"
)

func TestServiceSkeletonsConsistent(t *testing.T) {
	// Multi-template services must share one access skeleton: one mutant
	// serves all of a service's programs.
	for _, svc := range []interface {
		Constraints() (*alloc.Constraints, error)
	}{
		SynFloodService(NewSynDetector(8)),
		RateLimitService(NewRateLimiter(10)),
		HXSketchService(),
		HXClaimService(),
	} {
		if _, err := svc.Constraints(); err != nil {
			t.Errorf("skeleton inconsistency: %v", err)
		}
	}
}

func TestProgramShapes(t *testing.T) {
	// The claim arm must cost exactly one extra pass at its compact
	// placement — that is the per-claim recirculation price the driver
	// budgets against.
	if n := hxClaimProg.Len(); n != 25 {
		t.Errorf("hx-claim length = %d, want 25 (one extra pass on 20 stages)", n)
	}
	if got := hxClaimProg.MemoryAccessIndices(); len(got) != 1 || got[0] != 23 {
		t.Errorf("hx-claim accesses = %v, want [23]", got)
	}
	// The SYN and ACK arms must hash at the same index (same stage seed =
	// same counter slot) and keep the skeleton [6, 15].
	for _, p := range []struct {
		name string
		got  []int
	}{
		{"sf-syn", sfSynProg.MemoryAccessIndices()},
		{"sf-ack", sfAckProg.MemoryAccessIndices()},
	} {
		if len(p.got) != 2 || p.got[0] != 6 || p.got[1] != 15 {
			t.Errorf("%s accesses = %v, want [6 15]", p.name, p.got)
		}
	}
	if n := len(Programs()); n != 6 {
		t.Errorf("registry size = %d, want 6", n)
	}
}

// TestAllocatorPolicyPerProgram pins the policy a default (most-constrained)
// allocator places each heavy-hitter arm under: the one-pass sketch keeps
// it, and the 25-instruction claim arm, which no one-pass mutant fits, is
// enumerated under the least-constrained policy.
func TestAllocatorPolicyPerProgram(t *testing.T) {
	al, err := alloc.New(alloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		svc interface {
			Constraints() (*alloc.Constraints, error)
		}
		want alloc.Policy
	}{
		{HXSketchService(), alloc.MostConstrained},
		{HXClaimService(), alloc.LeastConstrained},
	} {
		cons, err := c.svc.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		res, err := al.Allocate(uint16(i+1), cons)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("%s refused: %s", cons.Name, res.Reason)
		}
		if res.New.Policy != c.want {
			t.Errorf("%s placed under %v, want %v", cons.Name, res.New.Policy, c.want)
		}
	}
}
