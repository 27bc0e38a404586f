// Command bench is the system-path benchmark: it drives the cache clients,
// the client shim, netsim, the switch, the guard and the runtime — and the
// allocation request -> controller -> allocator -> InstallGrant path —
// through public functions only, checks every answer, and prints every
// metric by name and unit. See README.md for the definitions.
//
//	bash bench/run.sh --workload get_hit --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --trace 1 --out out/a.json      (all workloads, per-layer)
//	bash bench/run.sh --compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []*workload{
	{
		name:     "get_hit",
		why:      "every GET is a switch hit: the shortest path, where client send/receive, the packet codec and execute are nearly all the work",
		roundOps: 500, rounds: 160, gcRounds: 5,
		prepare: prepareGetHit,
	},
	{
		name:     "get_miss",
		why:      "Zipf keys, 64 of 131072 cached: a miss is four hops via the KV server, so netsim events and the codec dominate and execute is diluted",
		roundOps: 500, rounds: 120, gcRounds: 4,
		prepare: prepareGetMiss,
	},
	{
		name:     "fabric_rw",
		why:      "90% Get / 10% Put on a 2x1 fabric: two-phase writes knock leaf copies out, reads become relays, so switch traversals and events per op double",
		roundOps: 500, rounds: 60, warm: 8, gcRounds: 2,
		prepare: prepareFabricRW,
	},
	{
		name:     "tenant_churn",
		why:      "pooled tenants depart and arrive one request at a time at constant occupancy: allocator, InstallGrant and grant synthesis do the work, the packet path almost none",
		roundOps: 1, rounds: 400, long: 2400, gcRounds: 12,
		prepare: prepareChurn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every key, op and tenant sequence is generated from")
	seconds := fs.Float64("seconds", 25, "how long the passes of one workload run")
	trace := fs.Int("trace", 0, "1 adds traced passes and the replay ledger, and prints the per-layer metrics")
	out := fs.String("out", "", "also write the full report to this JSON file")
	compare := fs.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	rep, err := measure(ws, *seed, *seconds, *trace != 0, 1, "out")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.print(stdout)
	if *out != "" {
		if err := rep.writeFile(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The last line is the machine-readable result.
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// env records where the numbers were taken.
type env struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// report is a full set of runs: what -out writes and -compare reads.
type report struct {
	Env       env               `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Passes    int      `json:"passes"`
	PassOps   int      `json:"pass_ops"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	EndToEnd  values   `json:"end_to_end"`
	// Spread is each end-to-end metric's own pass-to-pass spread, as a
	// share of its value; -compare calls a row unresolved when it exceeds
	// the bound.
	Spread   values `json:"spread"`
	PerLayer values `json:"per_layer,omitempty"`
	// Notes name what a reader must not miss, e.g. a ledger that covers
	// too little of the op.
	Notes []string `json:"notes,omitempty"`
}

// session is one workload's passes within a run.
type session struct {
	w        *workload
	sh       shape
	build    builder
	untraced []*passResult
	traced   []*passResult
	// quietest is the traced pass with the least wall time: the only one
	// whose system and tracer are kept, for the spans and the replay ledger.
	quietest *passResult
}

// measure runs the workloads' passes round-robin for seconds per workload
// and turns them into a report. scale shrinks every pass (tests only).
func measure(ws []*workload, seed int64, seconds float64, traced bool, scale float64, outDir string) (*report, error) {
	// One driving goroutine on one P: on the 2-vCPU image the runtime's
	// background threads on the second vCPU slow the first by half (see
	// README.md, "Estimator").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := &report{
		Env: env{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: os.Getenv("BENCH_COMMIT"),
		},
		Seed: seed, Seconds: seconds, Traced: traced,
	}
	var ss []*session
	for _, w := range ws {
		sh := w.shape(scale)
		build, err := w.prepare(seed, sh)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		ss = append(ss, &session{w: w, sh: sh, build: build})
	}
	total := time.Duration(seconds * float64(len(ws)) * float64(time.Second))
	budget := total
	if traced {
		budget /= 2 // the replay ledgers take the other half
	}
	// With tracing, untraced and traced passes alternate, two of each at
	// least.
	least := minPasses
	if traced {
		least = 4
	}
	start := time.Now()
	for iter := 0; ; iter++ {
		// Stop when half of another iteration would overrun the budget.
		if el := time.Since(start); iter >= least && el+el/time.Duration(2*iter) > budget {
			break
		}
		for _, s := range ss {
			if err := s.pass(traced && iter%2 == 1); err != nil {
				return nil, fmt.Errorf("%s: %w", s.w.name, err)
			}
		}
	}
	// What is left of seconds per workload goes to the replay ledgers, in
	// equal shares.
	end := start.Add(total)
	for i, s := range ss {
		wr, err := s.report(outDir, time.Now().Add(time.Until(end)/time.Duration(len(ss)-i)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.w.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func (s *session) pass(traced bool) error {
	if !traced {
		// The first pass is the long one (see workload.long).
		rounds := s.sh.rounds
		if len(s.untraced) == 0 {
			rounds = s.sh.long
		}
		res, err := runPass(s.build, s.sh, rounds, nil)
		if err != nil {
			return err
		}
		s.untraced = append(s.untraced, res)
		return nil
	}
	res, err := runPass(s.build, s.sh, s.sh.rounds, newTracer(s.sh.roundOps))
	if err != nil {
		return err
	}
	s.traced = append(s.traced, res)
	drop := res
	if s.quietest == nil || sumInt(res.roundNs) < sumInt(s.quietest.roundNs) {
		drop, s.quietest = s.quietest, res
	}
	if drop != nil {
		drop.sys, drop.tr = nil, nil
	}
	return nil
}

func sumInt(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// roundTimes returns the passes' round times, the long pass cut to the
// rounds it shares with the others.
func roundTimes(ps []*passResult, rounds int) [][]int64 {
	out := make([][]int64, len(ps))
	for i, p := range ps {
		out[i] = p.roundNs[:rounds]
	}
	return out
}

func (s *session) report(outDir string, ledgerUntil time.Time) (*workloadReport, error) {
	// Every count and virtual result, and the allocations, come from the
	// first pass, the long one.
	first := s.untraced[0]
	t := first.tally
	wr := &workloadReport{
		Name: s.w.name, Passes: len(s.untraced), PassOps: s.sh.rounds * s.sh.roundOps, Correct: true,
		EndToEnd: values{}, Spread: values{},
	}
	// A deterministic simulator repeats itself: every pass must agree with
	// the first of its length on every count and every virtual result.
	want := map[int]counters{}
	for i, p := range append(append([]*passResult(nil), s.untraced...), s.traced...) {
		wr.Attempted += p.tally.ops
		wr.Failed += p.tally.failed
		wr.Errors = append(wr.Errors, p.tally.errs...)
		got := exactValues(p)
		if w, ok := want[len(p.roundNs)]; !ok {
			want[len(p.roundNs)] = got
		} else if diff := w.diff(got); diff != "" {
			wr.Correct = false
			wr.Errors = append(wr.Errors, fmt.Sprintf("pass %d differs from an earlier one: %s", i, diff))
		}
	}
	if wr.Failed > 0 || t.ops == 0 {
		wr.Correct = false
	}
	if len(wr.Errors) > 8 {
		wr.Errors = wr.Errors[:8]
	}

	ops := float64(t.ops)
	rounds := roundTimes(s.untraced, s.sh.rounds)
	e := wr.EndToEnd
	var setups []int64
	for _, p := range s.untraced {
		setups = append(setups, p.setupNs)
	}
	// Minima, like the rounds: interference only ever adds.
	e["setup_s"] = float64(quantile(setups, 0)) / 1e9
	e["op_ns"] = float64(minSum(rounds)) / float64(wr.PassOps)
	e["op_allocs"] = float64(first.mallocs) / ops
	e["op_bytes"] = float64(first.bytes) / ops
	// The mean, not a percentile: a percentile of a large deterministic
	// sample sits on the same value whatever the seed (they are per-layer
	// metrics, e2e.virt_lat_us_*).
	e["virt_lat_us_mean"] = mean(t.lat) / 1e3
	e["hit_ratio"] = ratio(float64(t.hits), float64(t.gets))
	e["ok_ratio"] = 1 - ratio(float64(t.failed), ops)

	// Pass-to-pass spread: the estimator on the odd passes against the
	// even ones for op_ns, quartiles for setup_s; exact metrics have none.
	var odd, even [][]int64
	for i, r := range rounds {
		if i%2 == 0 {
			even = append(even, r)
		} else {
			odd = append(odd, r)
		}
	}
	wr.Spread["op_ns"] = math.Abs(float64(minSum(odd)-minSum(even))) / float64(minSum(rounds))
	wr.Spread["setup_s"] = iqrShare(setups)

	wr.PerLayer = countMetrics(first.counts, t)
	hostMetrics(wr.PerLayer, s.untraced, s.sh)
	if len(s.traced) > 0 {
		if err := s.traceMetrics(wr, outDir, ledgerUntil); err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			wr.PerLayer[d.name] += 0 // a layer the workload never enters reads 0
		}
	}
	return wr, nil
}

// tailMean is the mean of the slowest 1 % of the samples, which it sorts.
func tailMean(lat []int64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	top := lat[len(lat)-max(1, len(lat)/100):]
	return mean(top)
}

func mean(xs []int64) float64 { return ratio(float64(sumInt(xs)), float64(len(xs))) }

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []int64) float64 {
	if len(xs) < 4 {
		return 0
	}
	c := append([]int64(nil), xs...)
	return ratio(float64(quantile(c, 0.75)-quantile(c, 0.25)), float64(quantile(c, 0.5)))
}

// exactValues is the part of a pass that must repeat exactly.
func exactValues(p *passResult) counters {
	t := p.tally
	e := counters{
		"ops": float64(t.ops), "failed": float64(t.failed), "gets": float64(t.gets), "hits": float64(t.hits),
		"lat_samples": float64(len(t.lat)), "lat_sum_ns": float64(sumInt(t.lat)),
	}
	for k, v := range p.counts {
		e[k] = v
	}
	for k, v := range t.extra {
		e[k] = v
	}
	return e
}

// diff names the counters that differ, in order.
func (c counters) diff(o counters) string {
	var out []string
	for k, v := range c {
		if v != o[k] {
			out = append(out, fmt.Sprintf("%s %v != %v", k, v, o[k]))
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// hostMetrics adds the host-side per-layer metrics of the untraced passes.
func hostMetrics(v values, ps []*passResult, sh shape) {
	var perOp []int64
	var gc, pause, ops float64
	var heap uint64
	for _, p := range ps {
		for _, ns := range p.roundNs[:sh.rounds] {
			perOp = append(perOp, ns/int64(sh.roundOps))
		}
		gc += float64(p.gcNs)
		pause += float64(p.gcPause)
		ops += float64(p.tally.ops)
		if p.heapSys > heap {
			heap = p.heapSys
		}
	}
	v["host.op_ns_p50"] = float64(quantile(perOp, 0.50))
	v["host.op_ns_p95"] = float64(quantile(perOp, 0.95))
	v["host.gc_ns_per_op"] = ratio(gc, ops)
	v["host.gc_pause_ns_per_op"] = ratio(pause, ops)
	v["host.heap_sys_mb"] = float64(heap) / (1 << 20)
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// result is the last line of standard output: end-to-end metrics without
// tracing, per-layer metrics with it. With several workloads each metric
// is prefixed by its workload.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result() result {
	res := result{Correct: r.correct(), Metrics: map[string]measured{}}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, w := range r.Workloads {
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		vals := w.EndToEnd
		if r.Traced {
			vals = w.PerLayer
		}
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		for _, d := range defs {
			res.Metrics[prefix+d.name] = measured{Value: vals[d.name], Unit: d.unit}
		}
	}
	return res
}

func (r *report) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "bench: seed %d, %.0f s per workload, numcpu %d, gomaxprocs %d, %s, commit %s\n",
		r.Seed, r.Seconds, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintln(w, "clock: host = cost of running the simulator; virtual = simulated result on the netsim clock; exact = a count")
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s: %d passes x %d ops, %d attempted, %d failed, correct=%v\n",
			wr.Name, wr.Passes, wr.PassOps, wr.Attempted, wr.Failed, wr.Correct)
		for _, e := range wr.Errors {
			fmt.Fprintln(w, "   error:", e)
		}
		for _, d := range endToEnd {
			fmt.Fprintf(w, "   %-32s %16.6f %-10s %-8s spread %.4f\n", d.name, wr.EndToEnd[d.name], d.unit, d.clock, wr.Spread[d.name])
		}
		for _, d := range perLayer {
			if d.source != "count" && !r.Traced {
				continue
			}
			fmt.Fprintf(w, "   %-32s %16.6f %-10s %s\n", d.name, wr.PerLayer[d.name], d.unit, d.source)
		}
		for _, n := range wr.Notes {
			fmt.Fprintln(w, "   note:", n)
		}
	}
}
