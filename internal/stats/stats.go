// Package stats provides the small statistical toolkit the evaluation
// harness uses: exponentially weighted moving averages (the paper smooths
// several figures with EWMAs), Jain's fairness index (Figure 7d),
// percentiles, and time-series recording.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha (the paper uses alpha = 0.1 for Figure 5b and 0.6 for Figure 7c).
type EWMA struct {
	Alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Add folds in an observation and returns the new average.
func (e *EWMA) Add(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return x
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
	return e.value
}

// JainIndex computes Jain's fairness index over the allocations xs:
// (sum x)^2 / (n * sum x^2). It is 1 for perfectly equal shares and 1/n in
// the most unfair case; an empty population yields 1 by convention.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by
// nearest-rank on a sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Summary holds the usual distribution digest.
type Summary struct {
	N                       int
	Min, Max, Mean          float64
	P25, P50, P75, P90, P99 float64
}

// Summarize digests xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	s.P25 = Percentile(xs, 25)
	s.P50 = Percentile(xs, 50)
	s.P75 = Percentile(xs, 75)
	s.P90 = Percentile(xs, 90)
	s.P99 = Percentile(xs, 99)
	return s
}

// Point is one (time, value) sample.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series with CSV export; the benchmark
// harness records every figure's data through it.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// AddStep appends a sample at an integer step (epoch number as time).
func (s *Series) AddStep(step int, v float64) { s.Add(time.Duration(step), v) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values extracts the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// CSV renders "t,v" lines with a header.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t,%s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d,%g\n", int64(p.T), p.V)
	}
	return b.String()
}

// MergeCSV renders several series with a shared index column; series are
// sampled by position (row i = each series' i-th point).
func MergeCSV(index string, series ...*Series) string {
	var b strings.Builder
	b.WriteString(index)
	n := 0
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", s.Name)
		if s.Len() > n {
			n = s.Len()
		}
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		var t int64 = int64(i)
		for _, s := range series {
			if i < s.Len() {
				t = int64(s.Points[i].T)
				break
			}
		}
		fmt.Fprintf(&b, "%d", t)
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(&b, ",%g", s.Points[i].V)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
