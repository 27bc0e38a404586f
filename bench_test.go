// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment, running the quick configuration), plus
// microbenchmarks of the performance-critical substrates. Run with
//
//	go test -bench=. -benchmem
//
// For the full-scale figure data, use activesim -scenario paper.
package main

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/experiments"
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/telemetry"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

// benchExperiment runs one registered experiment per iteration and reports
// its headline metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	spec, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = spec.Run(experiments.RunConfig{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := res.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- One benchmark per figure/table (Section 6) ---

func BenchmarkFig5aAllocationTime(b *testing.B) {
	benchExperiment(b, "fig5a", "first_fail_hh_mc", "first_fail_lb_mc")
}

func BenchmarkFig5bMixedAllocation(b *testing.B) {
	benchExperiment(b, "fig5b", "final_ewma_ms_mc", "final_ewma_ms_lc")
}

func BenchmarkFig6Utilization(b *testing.B) {
	benchExperiment(b, "fig6", "max_util_cache_mc", "saturation_epoch_cache_mc")
}

func BenchmarkFig7aOnlineUtilization(b *testing.B) {
	benchExperiment(b, "fig7a", "final_mc", "final_lc")
}

func BenchmarkFig7bConcurrency(b *testing.B) {
	benchExperiment(b, "fig7b", "placement_ratio_mc", "placement_ratio_lc")
}

func BenchmarkFig7cReallocation(b *testing.B) {
	benchExperiment(b, "fig7c", "final_mc", "final_lc")
}

func BenchmarkFig7dFairness(b *testing.B) {
	benchExperiment(b, "fig7d", "final_mc", "final_lc")
}

func BenchmarkFig8aProvisioning(b *testing.B) {
	benchExperiment(b, "fig8a", "provision_mean_s", "provision_p99_s")
}

func BenchmarkFig8bLatency(b *testing.B) {
	benchExperiment(b, "fig8b", "slope_us_per_instr", "baseline_us")
}

func BenchmarkFig9aCaseStudy(b *testing.B) {
	benchExperiment(b, "fig9a", "steady_hit_rate", "context_switch_s")
}

func BenchmarkFig9bMultiTenant(b *testing.B) {
	benchExperiment(b, "fig9b", "steady_hit_rate_1", "steady_hit_rate_4")
}

func BenchmarkFig10FineTimescale(b *testing.B) {
	benchExperiment(b, "fig10", "reallocations_1")
}

func BenchmarkFig11Schemes(b *testing.B) {
	benchExperiment(b, "fig11", "wf_utilization_mean", "bf_utilization_mean", "wf_failrate_mean")
}

func BenchmarkFig12Granularity(b *testing.B) {
	benchExperiment(b, "fig12", "mixed_512B_ms", "mixed_4096B_ms")
}

func BenchmarkSec5Overheads(b *testing.B) {
	benchExperiment(b, "sec5", "activermt", "netvrm")
}

func BenchmarkSec61Mutants(b *testing.B) {
	benchExperiment(b, "sec61", "mutants_hh_mc", "mutants_cache_lc", "monolithic_cache_instances")
}

func BenchmarkSec62CompileComparison(b *testing.B) {
	benchExperiment(b, "sec62", "speedup")
}

// --- Microbenchmarks of the hot substrates ---

// BenchmarkPipelineExec measures one counter execution through the full
// 20-stage pipeline (the per-packet dataplane cost of the simulator).
func BenchmarkPipelineExec(b *testing.B) {
	prog := isa.MustAssemble("bench-counter", `
MAR_LOAD 2
MEM_INCREMENT
RTS
RETURN
`)
	tb, cls, err := admitTenants(1, prog, false, []compiler.AccessSpec{{Demand: 1}})
	if err != nil {
		b.Fatal(err)
	}
	a := capsule(cls[0], [4]uint32{0, 0, cls[0].Placement().Accesses[0].Range.Lo, 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.RT.ExecuteProgram(a)
	}
}

// admitTenants stands up a testbed switch and admits n tenants (FIDs 1..n)
// running prog through the controller, then lets every reallocation the
// admissions triggered finish, so each client holds its final placement.
func admitTenants(n int, prog *isa.Program, elastic bool, specs []compiler.AccessSpec) (*testbed.Testbed, []*client.Client, error) {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	cls := make([]*client.Client, n)
	for i := range cls {
		svc := &client.Service{Name: prog.Name, Templates: map[string]*isa.Program{"main": prog}, Specs: specs, Elastic: elastic}
		cls[i] = tb.AddClient(uint16(i+1), svc)
		if err := cls[i].RequestAndWait(5 * time.Second); err != nil {
			return nil, nil, fmt.Errorf("admit tenant %d: %w", i+1, err)
		}
	}
	tb.RunFor(time.Second)
	return tb, cls, nil
}

// capsule is a decoded program capsule carrying cl's linked program.
func capsule(cl *client.Client, args [4]uint32) *packet.Active {
	a := &packet.Active{Header: packet.ActiveHeader{FID: cl.FID()}, Args: args, Program: cl.Program("main")}
	a.Header.SetType(packet.TypeProgram)
	return a
}

// packetPathCacheProg is the paper's cache query (Listing 1): three memory
// accesses, the workload the BenchmarkPacketPath family executes.
var packetPathCacheProg = isa.MustAssemble("bench-cache", `
.arg ADDR 2
MAR_LOAD $ADDR
MEM_READ
MBR_EQUALS_DATA_1
CRET
MEM_READ
MBR_EQUALS_DATA_2
CRET
RTS
MEM_READ
MBR_STORE
RETURN
`)

// buildPacketPathWorkload deploys `tenants` cache tenants and returns the
// interleaved capsule ring (`perTenant` capsules per tenant) — the shared
// setup for the BenchmarkPacketPath family. Capsules are fully decoded up
// front: these benchmarks measure execution, not parsing.
func buildPacketPathWorkload(tenants, perTenant int) (*testbed.Testbed, []*packet.Active, error) {
	specs := []compiler.AccessSpec{{AlignGroup: 1}, {AlignGroup: 1}, {AlignGroup: 1}}
	tb, cls, err := admitTenants(tenants, packetPathCacheProg, true, specs)
	if err != nil {
		return nil, nil, err
	}
	ring := make([]*packet.Active, 0, tenants*perTenant)
	for _, cl := range cls {
		// Elastic neighbors shrink as later tenants arrive, so addresses come
		// from the FINAL placement, after every reallocation completed. Bucket
		// addressing is client-side (Section 3.2): the capsule carries an
		// absolute address inside the tenant's granted region.
		lo := cl.Placement().Accesses[0].Range.Lo
		words := cl.Placement().Accesses[0].Range.Hi - lo
		for k := 0; k < perTenant; k++ {
			addr := lo + uint32(k*2654435761)%words
			ring = append(ring, capsule(cl, [4]uint32{uint32(k), uint32(k) ^ 0x5a5a, addr, 0}))
		}
	}
	// Interleave tenants round-robin so consecutive capsules change tenant.
	mixed := make([]*packet.Active, 0, len(ring))
	for k := 0; k < perTenant; k++ {
		for t := 0; t < tenants; t++ {
			mixed = append(mixed, ring[t*perTenant+k])
		}
	}
	return tb, mixed, nil
}

// BenchmarkPacketPath measures the allocation-free capsule hot path: one
// cache-query execution through ExecuteProgram with pooled scratch state,
// so steady-state iterations run through the cached compiled plan. The allocs/op figure is the regression gate —
// it must be 0 in steady state (TestExecuteProgramZeroAlloc enforces it;
// this benchmark tracks the ns/op trajectory alongside).
func BenchmarkPacketPath(b *testing.B) {
	tb, ring, err := buildPacketPathWorkload(8, 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(ring); i++ { // warm scratch buffers
		tb.RT.ExecuteProgram(ring[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.RT.ExecuteProgram(ring[i%len(ring)])
	}
}

// BenchmarkPacketPathTelemetry is BenchmarkPacketPath with the full
// telemetry registry attached: sampled flight recording and the latency
// histogram ride along every capsule; the registry reads the counter fields
// only when it collects. The allocs/op gate
// stays 0; the ns/op delta against BenchmarkPacketPath is the telemetry
// overhead of the execute loop (a component figure).
func BenchmarkPacketPathTelemetry(b *testing.B) {
	tb, ring, err := buildPacketPathWorkload(8, 64)
	if err != nil {
		b.Fatal(err)
	}
	tb.RT.AttachTelemetry(telemetry.NewRegistry())
	for i := 0; i < len(ring); i++ { // warm scratch buffers
		tb.RT.ExecuteProgram(ring[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.RT.ExecuteProgram(ring[i%len(ring)])
	}
}

// BenchmarkAllocate measures one contended cache admission (enumeration +
// ranking + layout recomputation).
func BenchmarkAllocate(b *testing.B) {
	cons := &alloc.Constraints{
		Name: "cache", ProgLen: 11, IngressIdx: 7, Elastic: true,
		Accesses: []alloc.Access{
			{Index: 1, AlignGroup: 1}, {Index: 4, AlignGroup: 1}, {Index: 8, AlignGroup: 1},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := alloc.New(alloc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for f := uint16(1); f <= 20; f++ {
			if _, err := a.Allocate(f, cons); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := a.Allocate(21, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutantEnumeration measures the least-constrained feasibility
// sweep for the cache program, its bounds included.
func BenchmarkMutantEnumeration(b *testing.B) {
	cons := &alloc.Constraints{
		Name: "cache", ProgLen: 11, IngressIdx: 7, Elastic: true,
		Accesses: []alloc.Access{{Index: 1}, {Index: 4}, {Index: 8}},
	}
	shape := alloc.DefaultShape()
	for i := 0; i < b.N; i++ {
		if ms, _, err := shape.Mutants(cons, alloc.LeastConstrained); err != nil || len(ms) == 0 {
			b.Fatal("no mutants", err)
		}
	}
}

// BenchmarkPacketRoundTrip measures active-packet encode+decode.
func BenchmarkPacketRoundTrip(b *testing.B) {
	prog := isa.MustAssemble("p", "MAR_LOAD 2\nMEM_READ\nRTS\nRETURN")
	a := &packet.Active{Header: packet.ActiveHeader{FID: 1}, Program: prog, Payload: make([]byte, 64)}
	a.Header.SetType(packet.TypeProgram)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := a.Encode(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := packet.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZipf measures workload generation.
func BenchmarkZipf(b *testing.B) {
	z := workload.NewZipf(1, 1.25, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

// BenchmarkSynthesize measures client-side mutant synthesis.
func BenchmarkSynthesize(b *testing.B) {
	prog := isa.MustAssemble("cache", `
MAR_LOAD 2
MEM_READ
MBR_EQUALS_DATA_1
CRET
MEM_READ
MBR_EQUALS_DATA_2
CRET
RTS
MEM_READ
MBR_STORE
RETURN
`)
	m, accIdx := alloc.Mutant{3, 6, 10}, prog.MemoryAccessIndices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Synthesize(prog, accIdx, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVServer measures the plain server path (payload parse +
// reply build), dominating the simulated miss path.
func BenchmarkKVServer(b *testing.B) {
	msg := apps.KVMsg{Op: apps.KVGet, Key0: 1, Key1: 2, Seq: 3}
	payload := apps.BuildUDP(testIP(1), testIP(2), 40000, apps.KVPort, msg.Encode())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := apps.ParseUDP(payload); !ok {
			b.Fatal("parse failed")
		}
	}
}

func testIP(n int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(n)}) }
