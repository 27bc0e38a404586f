// Package telemetry is the switch observability layer: a registry of metric
// families that read each number where its owner keeps it — an exported
// counter field, the allocator's books, the runtime's admission rows, a
// power-of-two histogram the owner observes into — plus a flight recorder of
// sampled capsule traces.
//
// The discipline: the simulation is single-threaded, and so is collection.
// Registry.Snapshot runs on the simulation goroutine, between events, so it
// reads plain fields without atomics or mirrors, and no control-plane commit
// can be half-applied while it runs. The HTTP endpoint never reads a live
// field: it serves the snapshot the simulation last published
// (Registry.Publish), an immutable value handed over through one atomic
// pointer.
package telemetry

import (
	"math/bits"
	"strconv"
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

// family is one registered metric family; collect appends its current
// samples, read from wherever the owner keeps them.
type family struct {
	name, help string
	kind       Kind
	collect    func(ms *MetricSnapshot)
}

// Counter registers a counter that reads *v, a count its owner keeps in a
// plain field.
func (r *Registry) Counter(name, help string, v *uint64) {
	r.CounterFunc(name, help, func() uint64 { return *v })
}

// CounterFunc registers a counter whose total fn computes at collection.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, KindCounter, func(ms *MetricSnapshot) {
		ms.Samples = append(ms.Samples, Sample{Value: float64(fn())})
	})
}

// Gauge registers a gauge fn evaluates at collection.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, func(ms *MetricSnapshot) {
		ms.Samples = append(ms.Samples, Sample{Value: fn()})
	})
}

// Vec registers a family of one label: at collection each calls add once per
// child, in exposition order.
func (r *Registry) Vec(name, help string, kind Kind, label string, each func(add func(value string, v float64))) {
	r.register(name, help, kind, func(ms *MetricSnapshot) {
		each(func(value string, v float64) {
			ms.Samples = append(ms.Samples, Sample{Labels: label + `="` + value + `"`, Value: v})
		})
	})
}

// StageVec registers a family labelled by physical stage: v(s) for each of
// stages stages.
func (r *Registry) StageVec(name, help string, kind Kind, stages int, v func(s int) float64) {
	r.Vec(name, help, kind, "stage", func(add func(string, float64)) {
		for s := 0; s < stages; s++ {
			add(strconv.Itoa(s), v(s))
		}
	})
}

// Histogram registers a histogram family; fn returns the histogram to
// expose — one its owner observes into, or one it builds from its records.
func (r *Registry) Histogram(name, help string, fn func() *Histogram) {
	r.register(name, help, KindHistogram, func(ms *MetricSnapshot) {
		h := *fn()
		ms.Samples = append(ms.Samples, Sample{Hist: &h})
	})
}

// NumBuckets is the fixed histogram bucket count: bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds zero.
// At nanosecond resolution the top bucket starts at 2^38 ns ≈ 4.6 minutes;
// larger values clamp into it.
const NumBuckets = 40

// BucketBound returns the inclusive upper bound of bucket i (2^i - 1).
func BucketBound(i int) uint64 { return uint64(1)<<uint(i) - 1 }

// Histogram is a fixed-bucket power-of-two histogram in plain fields: raw
// (non-cumulative) bucket counts where bucket i spans [2^(i-1), 2^i). Its
// owner observes into it on the simulation goroutine; a snapshot copies it.
type Histogram struct {
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[min(bits.Len64(v), NumBuckets-1)]++
	h.Count++
	h.Sum += v
}
