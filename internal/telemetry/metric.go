// Package telemetry is the switch observability layer: a zero-alloc metrics
// core (counters, gauges, power-of-two latency histograms) recorded through
// pre-registered handles, a per-executor flight recorder of sampled capsule
// traces, and epoch-consistent registry snapshots that compose with the
// runtime's atomic.Pointer publication scheme so a scrape never observes a
// torn view across a grant commit.
//
// The recording discipline: the single-threaded packet path counts in plain
// fields it owns (rmt.Device, runtime.Runtime) and publishes them into the
// shared atomic metrics once per capsule (Counter.Set), so execution adds no
// locks and no allocations. Everything the scrape goroutine reads is
// atomic-backed or mutex-protected; plain counter fields must never be
// exposed through a GaugeFunc.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types for exposition.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Metric is anything a Registry can collect into a Snapshot.
type Metric interface {
	Name() string
	Help() string
	Kind() Kind
	// collect appends the metric's current samples. Implementations must be
	// safe to call concurrently with writers (atomic reads only).
	collect(ms *MetricSnapshot)
}

// Counter is a monotonically increasing counter: one atomic word, so the
// writer's Add and the scrape goroutine's Value need no lock.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter returns an unregistered counter (register with MustRegister,
// or construct through Registry.NewCounter).
func NewCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

// Name implements Metric.
func (c *Counter) Name() string { return c.name }

// Help implements Metric.
func (c *Counter) Help() string { return c.help }

// Kind implements Metric.
func (c *Counter) Kind() Kind { return KindCounter }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set publishes total, a count its single writer keeps in a plain field of
// its own. An unchanged total is not stored again, so publishing a whole
// component after every capsule writes only what the capsule moved.
func (c *Counter) Set(total uint64) {
	if c.v.Load() != total {
		c.v.Store(total)
	}
}

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: float64(c.Value())})
}

// Gauge is an integer gauge with atomic set/add semantics.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

// Name implements Metric.
func (g *Gauge) Name() string { return g.name }

// Help implements Metric.
func (g *Gauge) Help() string { return g.help }

// Kind implements Metric.
func (g *Gauge) Kind() Kind { return KindGauge }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: float64(g.Value())})
}

// FloatGauge is a float64 gauge stored as atomic bits.
type FloatGauge struct {
	name, help string
	v          atomic.Uint64
}

// NewFloatGauge returns an unregistered float gauge.
func NewFloatGauge(name, help string) *FloatGauge { return &FloatGauge{name: name, help: help} }

// Name implements Metric.
func (g *FloatGauge) Name() string { return g.name }

// Help implements Metric.
func (g *FloatGauge) Help() string { return g.help }

// Kind implements Metric.
func (g *FloatGauge) Kind() Kind { return KindGauge }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

func (g *FloatGauge) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: g.Value()})
}

// GaugeFunc evaluates a callback at snapshot time. The callback runs on the
// scrape goroutine while commits may be blocked on the registry: it must
// read only atomic state and must not take locks shared with a commit path.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc returns an unregistered callback gauge.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{name: name, help: help, fn: fn}
}

// Name implements Metric.
func (g *GaugeFunc) Name() string { return g.name }

// Help implements Metric.
func (g *GaugeFunc) Help() string { return g.help }

// Kind implements Metric.
func (g *GaugeFunc) Kind() Kind { return KindGauge }

func (g *GaugeFunc) collect(ms *MetricSnapshot) {
	ms.Samples = append(ms.Samples, Sample{Value: g.fn()})
}

// NumBuckets is the fixed histogram bucket count: bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds zero.
// At nanosecond resolution the top bucket starts at 2^38 ns ≈ 4.6 minutes;
// larger values clamp into it.
const NumBuckets = 40

// bucketIdx maps a value to its power-of-two bucket.
func bucketIdx(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i (2^i - 1).
func BucketBound(i int) uint64 { return uint64(1)<<uint(i) - 1 }

// Histogram is a fixed-bucket power-of-two histogram with atomic cells.
// Observe is lock-free.
type Histogram struct {
	name, help string
	buckets    [NumBuckets]atomic.Uint64
	count, sum atomic.Uint64
}

// NewHistogram returns an unregistered histogram.
func NewHistogram(name, help string) *Histogram { return &Histogram{name: name, help: help} }

// Name implements Metric.
func (h *Histogram) Name() string { return h.name }

// Help implements Metric.
func (h *Histogram) Help() string { return h.help }

// Kind implements Metric.
func (h *Histogram) Kind() Kind { return KindHistogram }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

func (h *Histogram) collect(ms *MetricSnapshot) {
	hs := &HistSample{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		hs.Buckets[i] = h.buckets[i].Load()
	}
	ms.Samples = append(ms.Samples, Sample{Hist: hs})
}

// CounterVec is a family of counters distinguished by one label. Children
// are memoized by label value and enumerated at collection in insertion
// order (which keeps per-stage families in stage order).
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*Counter
	order             []string
}

// NewCounterVec returns an unregistered counter family keyed by label.
func NewCounterVec(name, help, label string) *CounterVec {
	return &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
}

// Name implements Metric.
func (v *CounterVec) Name() string { return v.name }

// Help implements Metric.
func (v *CounterVec) Help() string { return v.help }

// Kind implements Metric.
func (v *CounterVec) Kind() Kind { return KindCounter }

// With returns the child counter for the label value, creating it on first
// use. Callers on hot paths must cache the returned handle.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = NewCounter(v.name, v.help)
		v.children[value] = c
		v.order = append(v.order, value)
	}
	return c
}

func (v *CounterVec) collect(ms *MetricSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		ms.Samples = append(ms.Samples, Sample{
			Labels: renderLabel(v.label, val),
			Value:  float64(v.children[val].Value()),
		})
	}
}

// GaugeVec is a family of gauges distinguished by one label.
type GaugeVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*Gauge
	order             []string
}

// NewGaugeVec returns an unregistered gauge family keyed by label.
func NewGaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{name: name, help: help, label: label, children: make(map[string]*Gauge)}
}

// Name implements Metric.
func (v *GaugeVec) Name() string { return v.name }

// Help implements Metric.
func (v *GaugeVec) Help() string { return v.help }

// Kind implements Metric.
func (v *GaugeVec) Kind() Kind { return KindGauge }

// With returns the child gauge for the label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[value]
	if !ok {
		g = NewGauge(v.name, v.help)
		v.children[value] = g
		v.order = append(v.order, value)
	}
	return g
}

func (v *GaugeVec) collect(ms *MetricSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, val := range v.order {
		ms.Samples = append(ms.Samples, Sample{
			Labels: renderLabel(v.label, val),
			Value:  float64(v.children[val].Value()),
		})
	}
}

// renderLabel renders one label pair in exposition form.
func renderLabel(key, value string) string { return key + `="` + value + `"` }
