package main

import (
	"activermt/internal/guard"
	"activermt/internal/switchd"
)

// metricDef declares one metric: BENCHMARK.json carries the same names,
// units, directions and bounds, and bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	clock  string  // "host": cost of running the simulator; "virtual": a simulated result; "exact": a count
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median a median may worsen by (end-to-end only)
	source string  // per-layer only: "count", "span" or "ledger"
}

// endToEnd is what a user of the system sees, on every workload. "op" is
// one GET/PUT answered, or in tenant_churn one arrival/departure reaching
// its verdict.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", clock: "host", better: "lower", bound: 0.25},
	{name: "op_ns", unit: "ns", clock: "host", better: "lower", bound: 0.25},
	{name: "op_allocs", unit: "allocs/op", clock: "host", better: "lower", bound: 0.10},
	{name: "op_bytes", unit: "B/op", clock: "host", better: "lower", bound: 0.10},
	{name: "virt_lat_us_mean", unit: "us", clock: "virtual", better: "lower", bound: 0.10},
	{name: "hit_ratio", unit: "ratio", clock: "virtual", better: "higher", bound: 0.15},
	{name: "ok_ratio", unit: "ratio", clock: "virtual", better: "higher", bound: 0.001},
}

// perLayer explains an end-to-end move; none of it gates a change, and a
// direction only says which way is usually good news.
var perLayer = []metricDef{
	// Counts, from public counters on the untraced passes; exact per seed.
	{name: "netsim.events_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "switchd.frames_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "switchd.drop_ratio", unit: "ratio", better: "lower", source: "count"},
	{name: "switchd.relayed_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "guard.checked_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "guard.drop_ratio", unit: "ratio", better: "lower", source: "count"},
	{name: "runtime.programs_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "runtime.specialized_ratio", unit: "ratio", better: "higher", source: "count"},
	{name: "runtime.fault_ratio", unit: "ratio", better: "lower", source: "count"},
	{name: "packet.progcache_hit_ratio", unit: "ratio", better: "higher", source: "count"},
	{name: "kvserver.requests_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "client.sent_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "client.unactivated_ratio", unit: "ratio", better: "lower", source: "count"},
	{name: "fabric.inval_per_put", unit: "1/op", better: "lower", source: "count"},
	{name: "fabric.retransmits_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "fabric.fills_per_op", unit: "1/op", better: "lower", source: "count"},
	{name: "alloc.admit_ratio", unit: "ratio", better: "higher", source: "count"},
	{name: "alloc.realloc_per_admit", unit: "1/op", better: "lower", source: "count"},
	{name: "alloc.utilization", unit: "ratio", better: "higher", source: "count"},
	{name: "alloc.fragmentation", unit: "ratio", better: "lower", source: "count"},
	{name: "controller.table_ops_per_admit", unit: "1/op", better: "lower", source: "count"},
	{name: "controller.virt_compute_ms", unit: "ms", better: "lower", source: "count"},
	{name: "controller.virt_snapshot_ms", unit: "ms", better: "lower", source: "count"},
	{name: "controller.virt_table_ms", unit: "ms", better: "lower", source: "count"},
	{name: "controller.snapshot_timeouts", unit: "count", better: "lower", source: "count"},
	{name: "e2e.virt_lat_us_p50", unit: "us", better: "lower", source: "count"},
	{name: "e2e.virt_lat_us_p99", unit: "us", better: "lower", source: "count"},
	{name: "e2e.virt_lat_us_tail1", unit: "us", better: "lower", source: "count"},
	{name: "e2e.lat_samples", unit: "count", better: "higher", source: "count"},
	{name: "host.op_ns_p50", unit: "ns", better: "lower", source: "count"},
	{name: "host.op_ns_p95", unit: "ns", better: "lower", source: "count"},
	{name: "host.gc_ns_per_op", unit: "ns", better: "lower", source: "count"},
	{name: "host.gc_pause_ns_per_op", unit: "ns", better: "lower", source: "count"},
	{name: "host.heap_sys_mb", unit: "MB", better: "lower", source: "count"},
	// Spans, traced passes: host ns per op = Σ self time / ops.
	{name: "client.send_ns", unit: "ns", better: "lower", source: "span"},
	{name: "client.recv_ns", unit: "ns", better: "lower", source: "span"},
	{name: "switchd.receive_ns", unit: "ns", better: "lower", source: "span"},
	{name: "kvserver.recv_ns", unit: "ns", better: "lower", source: "span"},
	{name: "netsim.step_self_ns", unit: "ns", better: "lower", source: "span"},
	{name: "trace.coverage", unit: "ratio", better: "higher", source: "span"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", source: "span"},
	// Replay ledger, per call, on what the taps captured.
	{name: "packet.decode_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "packet.decode_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "packet.decode_bytes", unit: "B", better: "lower", source: "ledger"},
	{name: "guard.check_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "guard.check_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "runtime.exec_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "runtime.exec_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "runtime.exec_bytes", unit: "B", better: "lower", source: "ledger"},
	{name: "packet.encode_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "packet.encode_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "packet.encode_bytes", unit: "B", better: "lower", source: "ledger"},
	{name: "netsim.event_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "netsim.event_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "client.send_call_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "client.send_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "client.send_bytes", unit: "B", better: "lower", source: "ledger"},
	{name: "client.recv_call_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "client.recv_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "client.recv_bytes", unit: "B", better: "lower", source: "ledger"},
	{name: "kvserver.recv_call_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "switchd.self_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "alloc.allocate_ns_p50", unit: "ns", better: "lower", source: "ledger"},
	{name: "alloc.allocate_ns_p99", unit: "ns", better: "lower", source: "ledger"},
	{name: "alloc.release_ns_p50", unit: "ns", better: "lower", source: "ledger"},
	{name: "alloc.allocate_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "runtime.install_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "runtime.install_allocs", unit: "allocs", better: "lower", source: "ledger"},
	{name: "runtime.install_bytes", unit: "B", better: "lower", source: "ledger"},
	{name: "runtime.remove_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "runtime.toggle_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "client.grant_ns", unit: "ns", better: "lower", source: "ledger"},
	{name: "ledger.coverage", unit: "ratio", better: "higher", source: "ledger"},
	{name: "ledger.control_share", unit: "ratio", better: "higher", source: "ledger"},
}

// values is one workload's metrics by name.
type values map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addSwitch accumulates one switch's public counters (and its guard's and
// runtime's) into c; the fabric sums over its devices.
func addSwitch(c counters, sw *switchd.Switch, g *guard.Guard) {
	rt := sw.Runtime()
	c["switchd.frames"] += float64(sw.FramesIn)
	c["switchd.dropped"] += float64(sw.FramesDropped)
	c["switchd.relayed"] += float64(sw.RelayedPrograms)
	c["switchd.guard_dropped"] += float64(sw.GuardDropped)
	c["switchd.sent"] += float64(sw.FramesForwarded + sw.FramesReturned)
	if g != nil {
		c["guard.checked"] += float64(g.Checked())
	}
	c["runtime.programs"] += float64(rt.ProgramsRun)
	c["runtime.specialized"] += float64(rt.SpecializedRuns)
	c["runtime.faults"] += float64(rt.Faults)
	hits, misses, _ := sw.ProgCache().Stats()
	c["progcache.hits"] += float64(hits)
	c["progcache.misses"] += float64(misses)
}

// countMetrics turns one pass's counter deltas and tally into the per-layer
// count metrics. Every value is exact for a seed.
func countMetrics(d counters, t *tally) values {
	ops := float64(t.ops)
	v := values{
		"netsim.events_per_op":       ratio(d["netsim.events"], ops),
		"switchd.frames_per_op":      ratio(d["switchd.frames"], ops),
		"switchd.drop_ratio":         ratio(d["switchd.dropped"], d["switchd.frames"]),
		"switchd.relayed_per_op":     ratio(d["switchd.relayed"], ops),
		"guard.checked_per_op":       ratio(d["guard.checked"], ops),
		"guard.drop_ratio":           ratio(d["switchd.guard_dropped"], d["guard.checked"]),
		"runtime.programs_per_op":    ratio(d["runtime.programs"], ops),
		"runtime.specialized_ratio":  ratio(d["runtime.specialized"], d["runtime.programs"]),
		"runtime.fault_ratio":        ratio(d["runtime.faults"], d["runtime.programs"]),
		"packet.progcache_hit_ratio": ratio(d["progcache.hits"], d["progcache.hits"]+d["progcache.misses"]),
		"kvserver.requests_per_op":   ratio(d["kvserver.requests"], ops),
		"client.sent_per_op":         ratio(d["client.sent"], ops),
		"client.unactivated_ratio":   ratio(d["client.unactivated"], d["client.sent"]),
		"fabric.inval_per_put":       ratio(d["fabric.invals"], d["fabric.puts"]),
		"fabric.retransmits_per_op":  ratio(d["fabric.retransmits"], ops),
		"fabric.fills_per_op":        ratio(d["fabric.fills"], ops),
		"e2e.virt_lat_us_p50":        float64(quantile(t.lat, 0.50)) / 1e3,
		"e2e.virt_lat_us_p99":        float64(quantile(t.lat, 0.99)) / 1e3,
		"e2e.virt_lat_us_tail1":      tailMean(t.lat) / 1e3,
		"e2e.lat_samples":            float64(len(t.lat)),
		// Calls per op of the ledger items that have no metric of their own.
		"ledger.sends_per_op":     ratio(float64(t.sends), ops),
		"ledger.egress_per_op":    ratio(d["switchd.sent"], ops),
		"ledger.client_rx_per_op": ratio(d["client.received"], ops),
	}
	// Control-plane metrics come from the controller's own records, which
	// tenant_churn reads into the tally; they are zero elsewhere.
	for _, name := range []string{
		"alloc.admit_ratio", "alloc.realloc_per_admit", "alloc.utilization", "alloc.fragmentation",
		"controller.table_ops_per_admit", "controller.virt_compute_ms", "controller.virt_snapshot_ms",
		"controller.virt_table_ms", "controller.snapshot_timeouts",
	} {
		v[name] = t.extra[name]
	}
	return v
}
