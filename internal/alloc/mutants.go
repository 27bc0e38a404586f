package alloc

// Mutant is one placement of a program's memory accesses: the logical stage
// each access executes in. Mutants are semantically identical programs that
// differ only in inserted NOPs (Section 4.1, Figure 4).
type Mutant []int

// clone copies the mutant.
func (m Mutant) clone() Mutant {
	out := make(Mutant, len(m))
	copy(out, m)
	return out
}

// MaxMutants caps enumeration as a safety valve against pathological
// constraint sets; the paper's applications stay in the hundreds-to-
// thousands range.
const MaxMutants = 1 << 20

// EnumerateMutants lists, in deterministic lexicographic order, every
// placement vector x with LB <= x <= UB and x[i]-x[i-1] >= Gap[i], whose
// accesses land in distinct physical stages of a numStages-deep pipeline
// (two accesses cannot share one stage's single register port, even across
// passes, because protection grants one region per FID per stage).
//
// The shared, deterministic order is load-bearing: allocation responses name
// the chosen mutant by its index in this order, and client and switch
// enumerate independently (Section 3.3).
func EnumerateMutants(b *Bounds, numStages int) []Mutant {
	m := len(b.LB)
	var out []Mutant
	x := make(Mutant, m)

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == m {
			out = append(out, x.clone())
			return len(out) < MaxMutants
		}
		lo := b.LB[i]
		if i > 0 {
			if v := x[i-1] + b.Gap[i]; v > lo {
				lo = v
			}
		}
		for v := lo; v <= b.UB[i]; v++ {
			if collides(x[:i], v, numStages) {
				continue
			}
			x[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}

func collides(prefix []int, v, numStages int) bool {
	for _, p := range prefix {
		if p%numStages == v%numStages {
			return true
		}
	}
	return false
}

// CountMutants returns the size of the feasibility region (the paper quotes
// these counts in Section 6.1).
func CountMutants(b *Bounds, numStages int) int {
	return len(EnumerateMutants(b, numStages))
}
