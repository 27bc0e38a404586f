package workload

import (
	"math/rand"
	"testing"
)

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1, 1.2, 1<<20)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Zipf: key 0 dominates.
	if counts[0] < n/10 {
		t.Errorf("hottest key frequency = %d, expected heavy skew", counts[0])
	}
	// Determinism: same seed, same stream.
	za, zb := NewZipf(1, 1.2, 1<<20), NewZipf(1, 1.2, 1<<20)
	for i := 0; i < 100; i++ {
		if za.Next() != zb.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestZipfKeyStable(t *testing.T) {
	z1 := NewZipf(7, 1.2, 1024)
	z2 := NewZipf(7, 1.2, 1024)
	for i := 0; i < 32; i++ {
		if z1.Next() != z2.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += Poisson(rng, 2.0)
	}
	mean := float64(sum) / n
	if mean < 1.9 || mean > 2.1 {
		t.Errorf("sample mean = %v, want ~2.0", mean)
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestSequenceArrivalDeparture(t *testing.T) {
	s := NewSequence(1)
	ev := s.ArrivalOf(KindCache)
	if !ev.Arrive || ev.Kind != KindCache || ev.FID != 1 {
		t.Fatalf("event = %+v", ev)
	}
	ev2 := s.Arrival()
	if ev2.FID != 2 {
		t.Errorf("fid = %d", ev2.FID)
	}
	if s.Resident() != 2 {
		t.Errorf("resident = %d", s.Resident())
	}
	dep, ok := s.Departure()
	if !ok || dep.Arrive {
		t.Fatalf("departure = %+v, %v", dep, ok)
	}
	if s.Resident() != 1 {
		t.Errorf("resident = %d", s.Resident())
	}
	s.Departure()
	if _, ok := s.Departure(); ok {
		t.Error("departure from empty population")
	}
}

func TestSequenceDrop(t *testing.T) {
	s := NewSequence(1)
	ev := s.Arrival()
	s.Drop(ev.FID)
	if s.Resident() != 0 {
		t.Error("drop did not unregister")
	}
	s.Drop(99) // absent: no-op
}

func TestPoissonEpochShape(t *testing.T) {
	s := NewSequence(3)
	total := 0
	for epoch := 0; epoch < 200; epoch++ {
		evs := s.PoissonEpoch(epoch, 2, 1)
		for _, ev := range evs {
			if ev.Epoch != epoch {
				t.Fatalf("epoch mislabeled: %+v", ev)
			}
			if ev.Arrive {
				total++
			} else {
				total--
			}
		}
	}
	// Arrival rate twice departure rate: population grows.
	if s.Resident() < 50 {
		t.Errorf("resident population = %d, expected growth", s.Resident())
	}
	if s.Resident() != total {
		t.Errorf("census mismatch: %d vs %d", s.Resident(), total)
	}
}

func TestAppKindString(t *testing.T) {
	if KindCache.String() != "cache" || KindHeavyHitter.String() != "hh" || KindLoadBalancer.String() != "lb" {
		t.Error("kind names")
	}
	if AppKind(9).String() != "unknown" {
		t.Error("unknown kind")
	}
}
