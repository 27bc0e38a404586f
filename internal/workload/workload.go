// Package workload generates the synthetic workloads of the paper's
// evaluation: Zipf-distributed key-value request streams (Section 6.3 cites
// standard KV traces, which are Zipfian) and Poisson application
// arrival/departure sequences (Sections 6.1, 6.2, 6.4). All generators are
// seeded and deterministic.
package workload

import (
	"math"
	"math/rand"
)

// Zipf draws keys from a Zipf distribution over a fixed key space.
type Zipf struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    uint64
}

// NewZipf returns a generator over keys [0, n) with skew s (> 1; typical KV
// workloads are near 1.01-1.3).
func NewZipf(seed int64, s float64, n uint64) *Zipf {
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{rng: rng, zipf: rand.NewZipf(rng, s, 1, n-1), n: n}
}

// Next draws a key index.
func (z *Zipf) Next() uint64 { return z.zipf.Uint64() }

// Poisson draws from a Poisson distribution with the given mean, using
// Knuth's method (fine for the small means the evaluation uses).
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// AppKind labels the three exemplar applications of Section 6.1.
type AppKind int

// Application kinds.
const (
	KindCache AppKind = iota
	KindHeavyHitter
	KindLoadBalancer
	numKinds
)

// String names the kind as in the paper's figures.
func (k AppKind) String() string {
	switch k {
	case KindCache:
		return "cache"
	case KindHeavyHitter:
		return "hh"
	case KindLoadBalancer:
		return "lb"
	}
	return "unknown"
}

// Event is one application arrival or departure.
type Event struct {
	Epoch  int
	Arrive bool
	Kind   AppKind
	FID    uint16 // departures name the instance to remove
}

// Sequence generates arrival/departure event streams.
type Sequence struct {
	rng      *rand.Rand
	nextFID  uint16
	resident []uint16
	kinds    map[uint16]AppKind
}

// NewSequence returns a seeded generator. FIDs start at 1.
func NewSequence(seed int64) *Sequence {
	return &Sequence{rng: rand.New(rand.NewSource(seed)), nextFID: 1, kinds: map[uint16]AppKind{}}
}

// Arrival draws a new instance of a uniformly random kind and registers it
// as resident.
func (s *Sequence) Arrival() Event {
	return s.ArrivalOf(AppKind(s.rng.Intn(int(numKinds))))
}

// ArrivalOf draws a new instance of the given kind.
func (s *Sequence) ArrivalOf(kind AppKind) Event {
	fid := s.nextFID
	s.nextFID++
	s.resident = append(s.resident, fid)
	s.kinds[fid] = kind
	return Event{Arrive: true, Kind: kind, FID: fid}
}

// Departure removes a uniformly random resident instance; ok is false when
// none are resident.
func (s *Sequence) Departure() (Event, bool) {
	if len(s.resident) == 0 {
		return Event{}, false
	}
	i := s.rng.Intn(len(s.resident))
	fid := s.resident[i]
	s.resident[i] = s.resident[len(s.resident)-1]
	s.resident = s.resident[:len(s.resident)-1]
	kind := s.kinds[fid]
	delete(s.kinds, fid)
	return Event{Arrive: false, Kind: kind, FID: fid}, true
}

// Drop unregisters an instance that failed admission (so departures only
// target actually-resident apps).
func (s *Sequence) Drop(fid uint16) {
	for i, f := range s.resident {
		if f == fid {
			s.resident[i] = s.resident[len(s.resident)-1]
			s.resident = s.resident[:len(s.resident)-1]
			delete(s.kinds, fid)
			return
		}
	}
}

// Resident returns the number of registered instances.
func (s *Sequence) Resident() int { return len(s.resident) }

// PoissonEpoch generates one epoch of the paper's online workload: arrivals
// ~ Poisson(arrivalMean), departures ~ Poisson(departureMean) (Section 6.1
// uses means 2 and 1). Departures are bounded by residency.
func (s *Sequence) PoissonEpoch(epoch int, arrivalMean, departureMean float64) []Event {
	var out []Event
	nd := Poisson(s.rng, departureMean)
	for i := 0; i < nd; i++ {
		if ev, ok := s.Departure(); ok {
			ev.Epoch = epoch
			out = append(out, ev)
		}
	}
	na := Poisson(s.rng, arrivalMean)
	for i := 0; i < na; i++ {
		ev := s.Arrival()
		ev.Epoch = epoch
		out = append(out, ev)
	}
	return out
}
