package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Run shape shared by every workload (see README.md, "Run shape").
const (
	warmRounds = 2  // untimed rounds that start each pass, unless the workload needs more
	burstOps   = 16 // requests issued before the engine is drained
	minPasses  = 3  // passes a run makes even when they overrun -seconds
)

// workload is one set of inputs. prepare generates every key, op and tenant
// sequence from the seed before any timing starts; the system under test
// only ever sees the generated inputs.
type workload struct {
	name     string
	why      string
	roundOps int // ops per round
	rounds   int // timed rounds per pass at scale 1
	// long is the length of a run's first pass, which supplies every count
	// and virtual result: tenant_churn's move too much with the seed over a
	// pass short enough to repeat often (see README.md, "Estimator"). Its
	// first rounds are the other passes' rounds. 0 means rounds.
	long     int
	warm     int // untimed rounds that start each pass; 0 means warmRounds
	gcRounds int // rounds between two collections (about 4 MB of garbage)
	prepare  func(seed int64, sh shape) (builder, error)
}

// shape is a workload's size after scaling: the tests run 1/100-scale
// passes, the command always runs scale 1.
type shape struct {
	roundOps, rounds, long, warm int
	gcRounds                     int // a collection follows every gcRounds-th round
}

func (w *workload) shape(scale float64) shape {
	s := shape{roundOps: w.roundOps, warm: w.warm, gcRounds: w.gcRounds}
	s.rounds = max(1, int(float64(w.rounds)*scale))
	s.long = max(s.rounds, int(float64(w.long)*scale))
	if s.warm == 0 {
		s.warm = warmRounds
	}
	return s
}

// ops is how many ops the long pass consumes, warm-up included.
func (s shape) ops() int { return (s.warm + s.long) * s.roundOps }

// builder stands up a fresh system for one pass. A non-nil tracer asks for
// the traced topology (endpoint taps, per-step timing).
type builder func(tr *tracer) (system, error)

// system is one pass's freshly built system under test plus the benchmark's
// own bookkeeping around it.
type system interface {
	// round runs round i (warm-up rounds first) to completion.
	round(i int)
	// startTimed marks the end of warm-up: latency samples and op counts
	// taken before it are discarded.
	startTimed()
	// counters reads the public counters of every layer.
	counters() counters
	// finish runs the end-of-pass answer checks and returns the tally.
	finish() *tally
}

// counters is a snapshot of the cumulative public counters of the layers,
// by name; per-layer count metrics are ratios of deltas over the timed
// rounds.
type counters map[string]float64

func (c counters) sub(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// tally is the benchmark's own account of one pass: every op issued, every
// answer checked, every virtual latency sampled.
type tally struct {
	ops    int      // ops attempted in the timed rounds
	sends  int      // the benchmark's own sends of the kind sendBatch replays
	failed int      // ops with no or a wrong answer
	gets   int      // GETs issued (denominator of hit_ratio)
	hits   int      // GETs answered by a switch
	lat    []int64  // virtual ns, issue -> response, one per answered op
	errs   []string // first few answer-check failures, for the report
	timed  bool
	// extra carries workload-specific exact values (gauge means, record
	// means) that are not counter deltas.
	extra counters
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// passResult is everything measured on one pass.
type passResult struct {
	setupNs int64
	roundNs []int64 // host ns per timed round
	mallocs uint64
	bytes   uint64
	gcNs    int64 // host ns in the collections between rounds
	gcPause uint64
	heapSys uint64
	counts  counters // deltas over the timed rounds
	tally   *tally
	// Traced passes only: the system and the tracer, which holds the fold
	// of the spans and what the replay ledger feeds on. Kept for the
	// quietest pass alone.
	sys system
	tr  *tracer
}

// runPass builds a fresh system, warms it up and runs the given number of
// timed rounds.
func runPass(b builder, sh shape, rounds int, tr *tracer) (*passResult, error) {
	t0 := time.Now()
	sys, err := b(tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sh.warm; i++ {
		sys.round(i)
	}
	res := &passResult{setupNs: int64(time.Since(t0)), roundNs: make([]int64, rounds)}
	// The collector runs between rounds, never inside one (see README.md,
	// "Estimator"): every round of every pass starts on a collected, swept
	// heap.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	sys.startTimed()
	if tr != nil {
		tr.begin()
	}
	c0 := sys.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		sys.round(sh.warm + i)
		res.roundNs[i] = int64(time.Since(start))
		if (i+1)%sh.gcRounds == 0 {
			runtime.GC()
			res.gcNs += int64(time.Since(start)) - res.roundNs[i]
		}
		if tr != nil {
			tr.endRound() // folds the round's spans, outside the round's clock
		}
	}
	runtime.ReadMemStats(&m1)
	res.counts = sys.counters().sub(c0)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	res.heapSys = m1.HeapSys
	res.tally = sys.finish()
	if tr != nil {
		res.sys, res.tr = sys, tr
	}
	return res, nil
}

// minSum is the estimator behind op_ns. Round i has the same content in
// every pass and interference only ever adds time, so a round's cost is its
// minimum over the passes; the pass cost is the sum of those minima.
func minSum(passes [][]int64) int64 {
	if len(passes) == 0 {
		return 0
	}
	var sum int64
	for i := range passes[0] {
		m := passes[0][i]
		for _, p := range passes[1:] {
			if p[i] < m {
				m = p[i]
			}
		}
		sum += m
	}
	return sum
}

// quantile returns the q-quantile (nearest rank) of xs, which it sorts.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
