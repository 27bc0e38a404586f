package baseline

import (
	"math/rand"
	"testing"
)

func TestNetVRMAllocBasics(t *testing.T) {
	a := NewNetVRM(368)       // usable 184, max page 128
	off, err := a.Alloc(1, 3) // rounds to 4
	if err != nil {
		t.Fatal(err)
	}
	if off%4 != 0 {
		t.Errorf("offset %d not page-aligned", off)
	}
	if a.UsedBlocks() != 4 {
		t.Errorf("used = %d, want 4 (power-of-two rounding)", a.UsedBlocks())
	}
	if _, err := a.Alloc(1, 1); err == nil {
		t.Error("duplicate fid accepted")
	}
	if _, err := a.Alloc(2, 0); err != nil {
		t.Fatal(err) // elastic: smallest page
	}
	if len(a.apps) != 2 {
		t.Errorf("apps = %d", len(a.apps))
	}
	if err := a.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(1); err == nil {
		t.Error("double release accepted")
	}
}

func TestNetVRMExhaustion(t *testing.T) {
	a := NewNetVRM(368)
	admitted := 0
	for fid := uint16(1); fid <= 100; fid++ {
		if _, err := a.Alloc(fid, 16); err != nil {
			break
		}
		admitted++
	}
	// Usable pool is 184 blocks (half of 368); 16-block pages fit 11 times
	// into the 128-page... the buddy tree only spans maxPage=128, so the
	// capacity is 128/16 = 8.
	if admitted != 8 {
		t.Errorf("admitted = %d, want 8 (pow2 tree over the halved pool)", admitted)
	}
}

func TestNetVRMOversizeRejected(t *testing.T) {
	a := NewNetVRM(368)
	if _, err := a.Alloc(1, 150); err == nil {
		t.Error("demand above max page accepted")
	}
}

func TestNetVRMBuddyCoalescing(t *testing.T) {
	a := NewNetVRM(512) // usable 256, max page 256
	fids := []uint16{1, 2, 3, 4}
	for _, f := range fids {
		if _, err := a.Alloc(f, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fids {
		if err := a.Release(f); err != nil {
			t.Fatal(err)
		}
	}
	// Everything coalesced back: the full max page is allocatable again.
	if _, err := a.Alloc(9, 256); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestNetVRMNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewNetVRM(4096) // usable 2048
	live := map[uint16][2]int{}
	next := uint16(1)
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) == 0 && len(live) > 0 {
			for f := range live {
				if err := a.Release(f); err != nil {
					t.Fatal(err)
				}
				delete(live, f)
				break
			}
			continue
		}
		d := 1 + rng.Intn(64)
		off, err := a.Alloc(next, d)
		if err == nil {
			size := roundUp(d)
			for f, r := range live {
				if off < r[0]+r[1] && r[0] < off+size {
					t.Fatalf("overlap: fid %d [%d,%d) vs new [%d,%d)", f, r[0], r[0]+r[1], off, off+size)
				}
			}
			live[next] = [2]int{off, size}
		}
		next++
	}
}

func TestRoundUp(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 16: 16, 17: 32} {
		if got := roundUp(n); got != want {
			t.Errorf("roundUp(%d) = %d, want %d", n, got, want)
		}
	}
}
