package testbed

import (
	"testing"
	"time"

	"activermt/internal/chaos"
)

// Lossy-network tests: the paper's reliability story is idempotence plus
// client retransmission (Section 4.3); these tests run the protocol over
// links that drop frames. Loss is injected through the chaos layer, which
// arms both directions of a link from one seed.

func TestAllocationSurvivesLoss(t *testing.T) {
	tb := newBed(t)
	_, cl := tb.AddMemSync(1, 2)
	cl.RetryAfter = 50 * time.Millisecond

	// 30% loss in both directions on the client's link.
	chaos.LinkLoss{Link: cl.Port(), Rate: 0.3, Seed: 7}.Apply(tb.System())

	if err := cl.RequestAndWait(30 * time.Second); err != nil {
		t.Fatalf("never became operational under loss: %v (retries=%d)", err, cl.Retries)
	}
	if cl.Placement() == nil {
		t.Fatal("no placement")
	}
}

func TestMemSyncRetransmitsUnderLoss(t *testing.T) {
	tb := newBed(t)
	ms, cl := tb.AddMemSync(1, 2)
	cl.RetryAfter = 50 * time.Millisecond
	if err := cl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Lose 40% of frames from here on; reads and writes are idempotent, so
	// the driver's retransmission converges.
	chaos.LinkLoss{Link: cl.Port(), Rate: 0.4, Seed: 21}.Apply(tb.System())

	done := 0
	for i := uint32(0); i < 32; i++ {
		ms.Write(i, 0xA000+i, func(uint32) { done++ })
	}
	tb.RunFor(5 * time.Second)
	if done != 32 {
		t.Fatalf("writes acknowledged: %d/32 (retries=%d)", done, ms.Retries)
	}
	if ms.Retries == 0 {
		t.Error("no retransmissions under 40% loss — loss model inert?")
	}

	reads := 0
	for i := uint32(0); i < 32; i++ {
		want := 0xA000 + i
		ms.Read(i, func(v uint32) {
			if v != want {
				t.Errorf("read %d = %#x, want %#x", i, v, want)
			}
			reads++
		})
	}
	tb.RunFor(5 * time.Second)
	if reads != 32 {
		t.Fatalf("reads answered: %d/32", reads)
	}
	if ms.Outstanding() != 0 {
		t.Errorf("outstanding = %d", ms.Outstanding())
	}
}

func TestDuplicateAllocationRequestIdempotent(t *testing.T) {
	tb := newBed(t)
	_, cl := tb.AddCache(1, tb.AddKVServer())
	if err := cl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	first := cl.Placement().Accesses[0]

	// A duplicate request (as a retransmission would produce) must return
	// the same placement, not fail or double-allocate.
	if err := cl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := cl.Placement().Accesses[0]; got != first {
		t.Errorf("placement changed on duplicate request: %+v -> %+v", first, got)
	}
	if tb.Ctrl.Allocator().NumApps() != 1 {
		t.Errorf("apps = %d after duplicate request", tb.Ctrl.Allocator().NumApps())
	}
}
