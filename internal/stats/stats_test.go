package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Add(10); got != 10 {
		t.Errorf("first Add = %v", got)
	}
	if got := e.Add(20); got != 15 {
		t.Errorf("second Add = %v", got)
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex(nil) != 1 {
		t.Error("empty population")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero population")
	}
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares = %v", got)
	}
	// One user hogging everything: 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("max unfair = %v", got)
	}
	f := func(xs []float64) bool {
		for i := range xs {
			xs[i] = math.Abs(xs[i])
			if math.IsInf(xs[i], 0) || math.IsNaN(xs[i]) || xs[i] > 1e100 {
				return true // overflow territory: not a meaningful allocation
			}
		}
		j := JainIndex(xs)
		return j >= 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileAndSummary(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extremes wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("util")
	s.AddStep(0, 0.5)
	s.AddStep(1, 0.7)
	s.Add(2, 0.9)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if vs := s.Values(); vs[1] != 0.7 {
		t.Errorf("Values = %v", vs)
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "t,util\n0,0.5\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestMergeCSV(t *testing.T) {
	a := NewSeries("a")
	b := NewSeries("b")
	a.Add(time.Duration(0), 1)
	a.Add(time.Duration(1), 2)
	b.Add(time.Duration(0), 3)
	out := MergeCSV("epoch", a, b)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "epoch,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" {
		t.Errorf("row = %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Errorf("ragged row = %q", lines[2])
	}
}
