package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"activermt/internal/apps"
	"activermt/internal/netsim"
	"activermt/internal/packet"
)

// Tracing stays in the benchmark's own files: the layers call each other
// directly, so the only boundaries the benchmark can see are its own calls
// into apps/fabric/client, each Engine.Step, and every netsim.Endpoint —
// which it wraps in a tap. Spans inside the program are a later issue.

// layer names one span kind; a layer's self time is its spans minus the
// child spans inside them.
type layer uint8

const (
	layerSend   layer = iota // the benchmark's own Get/Put/RequestAllocation/Release calls
	layerStep                // one Engine.Step
	layerSwitch              // switchd.Switch.Receive
	layerClient              // client.Client.Receive (and the app handler under it)
	layerServer              // apps.KVServer.Receive
	numLayers
)

var layerNames = [numLayers]string{"client.send", "netsim.step", "switchd.receive", "client.recv", "kvserver.recv"}

// sampleEvery is the share of ops whose spans reach the trace file.
const sampleEvery = 64

type span struct {
	layer      layer
	parent     int32 // index of the enclosing span in the same round, -1 at top level
	start, end int64 // host ns since the tracer's base
	op         uint32
	frame      []byte // the frame that caused the span; its op id is read after the round
}

// tracer records spans in a pre-allocated slice, one round at a time, and
// folds them into per-layer self times between rounds, outside any clock.
type tracer struct {
	base  time.Time
	on    bool // spans are recorded in timed rounds only
	spans []span
	cur   int32 // innermost open span

	self [numLayers]int64 // Σ self ns per layer over the timed rounds

	sampled []traceLine // 1 op in sampleEvery, kept for the trace file
	round   int

	// Captured inputs of the replay ledger (see ledger.go): a sample of the
	// deliveries each kind of endpoint received. What reaches a switch is
	// its ingress; what reaches a client or the server left a switch.
	rx [numLayers]deliverySample
	// control keeps every frame the taps marked with keepAll received, in
	// order: tenant_churn's allocation responses and reallocation notices.
	control [][]byte
}

func newTracer(roundOps int) *tracer {
	tr := &tracer{base: time.Now(), spans: make([]span, 0, roundOps*16+64), cur: -1}
	for l := range tr.rx {
		tr.rx[l].stride = 1
	}
	return tr
}

func (tr *tracer) begin() { tr.on = true }

// open starts a span; it is a no-op on a nil tracer so the untraced pass
// runs the same code. The clock is read first here and last in close: the
// tracer's own bookkeeping lands inside the span (and in trace.overhead_pct)
// rather than in the gaps between spans.
func (tr *tracer) open(l layer, frame []byte) int32 {
	if tr == nil || !tr.on {
		return -1
	}
	start := int64(time.Since(tr.base))
	i := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{layer: l, parent: tr.cur, start: start, frame: frame})
	tr.cur = i
	return i
}

func (tr *tracer) close(i int32) {
	if i < 0 {
		return
	}
	s := &tr.spans[i]
	tr.cur = s.parent
	s.end = int64(time.Since(tr.base))
}

// next closes step span i and opens the next one on the same clock read, so
// the steps of a drain tile it without gaps.
func (tr *tracer) next(i int32) int32 {
	if i < 0 {
		return -1
	}
	now := int64(time.Since(tr.base))
	tr.spans[i].end = now
	tr.spans = append(tr.spans, span{layer: layerStep, parent: -1, start: now})
	tr.cur = int32(len(tr.spans) - 1)
	return tr.cur
}

// cancel drops span i, the last one opened, unused.
func (tr *tracer) cancel(i int32) {
	if i >= 0 {
		tr.spans = tr.spans[:i]
		tr.cur = -1
	}
}

// stepper drives an engine one Step at a time, counting the steps and, in a
// traced pass, recording each as a span.
type stepper struct {
	eng   *netsim.Engine
	tr    *tracer
	steps uint64
}

// stepWhile steps the engine for as long as more says so.
func (st *stepper) stepWhile(more func() bool) {
	sp := st.tr.open(layerStep, nil)
	for more() {
		st.eng.Step()
		st.steps++
		sp = st.tr.next(sp)
	}
	st.tr.cancel(sp)
}

// drain steps the engine until nothing is pending.
func (st *stepper) drain() { st.stepWhile(st.pending) }

func (st *stepper) pending() bool { return st.eng.Pending() > 0 }

// closeOp ends a span the benchmark opened around one of its own sends and
// names its op.
func (tr *tracer) closeOp(i int32, op uint32) {
	tr.close(i)
	if i >= 0 {
		tr.spans[i].op = op
	}
}

// endRound folds the finished round into the per-layer totals, keeps the
// sampled ops for the trace file and empties the span slice.
func (tr *tracer) endRound() {
	for i := range tr.spans {
		s := &tr.spans[i]
		d := s.end - s.start
		tr.self[s.layer] += d
		if s.parent >= 0 {
			tr.self[tr.spans[s.parent].layer] -= d
		}
		if s.frame != nil {
			s.op = opOf(s.frame)
			s.frame = nil
			// A step is the delivery of one frame: it takes its op
			// from the receive span under it.
			if s.parent >= 0 && tr.spans[s.parent].layer == layerStep {
				tr.spans[s.parent].op = s.op
			}
		}
	}
	ids := make(map[int32]int, 64)
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.op == 0 || s.op%sampleEvery != 0 {
			continue
		}
		parent := -1
		if p, ok := ids[s.parent]; ok {
			parent = p
		}
		ids[int32(i)] = len(tr.sampled)
		tr.sampled = append(tr.sampled, traceLine{
			Name: layerNames[s.layer], Start: s.start, End: s.end, Parent: parent, Op: s.op, Round: tr.round,
		})
	}
	tr.round++
	tr.spans = tr.spans[:0]
	tr.cur = -1
}

// opOf reads a frame's op id: the KV sequence number of a data frame, the
// FID of a control frame.
func opOf(frame []byte) uint32 {
	f, err := packet.DecodeFrame(frame)
	if err != nil {
		return 0
	}
	if _, _, body, ok := apps.ParseUDP(f.Inner); ok {
		if m, ok := apps.DecodeKVMsg(body); ok {
			return m.Seq
		}
	}
	if f.Active != nil {
		return uint32(f.Active.Header.FID)
	}
	return 0
}

// traceLine is one line of bench/out/trace-<workload>.jsonl. Parent is the
// line number (from 0) of the enclosing span, -1 at top level.
type traceLine struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint32 `json:"op"`
	Round  int    `json:"round"`
}

func (tr *tracer) writeFile(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.sampled {
		if err := enc.Encode(&tr.sampled[i]); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return w.Flush()
}

// tap wraps a netsim.Endpoint: it captures the delivery for the replay
// ledger and records the endpoint's Receive as a span.
type tap struct {
	tr      *tracer
	l       layer
	inner   netsim.Endpoint
	keepAll bool // keep every frame in tracer.control instead of sampling
}

func (t *tap) Receive(frame []byte, port *netsim.Port) {
	tr := t.tr
	if tr.on {
		if t.keepAll {
			tr.control = append(tr.control, frame)
		} else {
			tr.rx[t.l].add(delivery{frame, t.inner, port})
		}
	}
	sp := tr.open(t.l, frame)
	t.inner.Receive(frame, port)
	tr.close(sp)
}

// delivery is one captured Receive call.
type delivery struct {
	frame []byte
	to    netsim.Endpoint
	port  *netsim.Port
}

// deliverySample keeps up to maxSample deliveries spread evenly over a
// pass: when it fills, it drops every other one and doubles its stride.
type deliverySample struct {
	kept   []delivery
	stride int
	seen   int
}

const maxSample = 256

func (s *deliverySample) add(d delivery) {
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	if len(s.kept) == maxSample {
		half := s.kept[:0]
		for i := 1; i < maxSample; i += 2 {
			half = append(half, s.kept[i])
		}
		s.kept = half
		s.stride *= 2
		if s.seen%s.stride != 0 {
			return
		}
	}
	s.kept = append(s.kept, d)
}

// retap replaces the link behind aPort with one whose two ends deliver to
// the given endpoints (taps around the original owners). Port numbers are
// kept, so re-registering the returned ports with their owners (AddPort,
// Attach) leaves the topology as the public constructors built it.
func retap(eng *netsim.Engine, a netsim.Endpoint, aPort *netsim.Port, b netsim.Endpoint, delay time.Duration, bw float64) (*netsim.Port, *netsim.Port) {
	return netsim.Connect(eng, a, aPort.Num, b, aPort.Peer().Num, delay, bw)
}

// traceMetrics adds the span metrics and the replay ledger of the quietest
// traced pass to a workload's report and writes its trace file.
func (s *session) traceMetrics(wr *workloadReport, outDir string, until time.Time) error {
	q := s.quietest
	v, ops := wr.PerLayer, float64(q.tally.ops)
	for l, name := range map[layer]string{
		layerSend: "client.send_ns", layerClient: "client.recv_ns", layerSwitch: "switchd.receive_ns",
		layerServer: "kvserver.recv_ns", layerStep: "netsim.step_self_ns",
	} {
		v[name] = float64(q.tr.self[l]) / ops
	}
	v["trace.coverage"] = ratio(float64(sumInt(q.tr.self[:])), float64(sumInt(q.roundNs)))
	v["trace.overhead_pct"] = 100 * (ratio(float64(minSum(roundTimes(s.traced, s.sh.rounds))), float64(minSum(roundTimes(s.untraced, s.sh.rounds)))) - 1)
	if err := q.tr.writeFile(outDir, s.w.name); err != nil {
		return err
	}

	// The control plane first: its replays are long, the packet items then
	// take whatever time is left.
	var control float64
	ctlPerOp := map[string]float64{}
	if cs, ok := q.sys.(*churnSystem); ok {
		var ctl values
		ctl, ctlPerOp = controlLedger(cs, q.tr)
		for k, x := range ctl {
			v[k] = x
		}
	}
	items, perOp := packetLedger(q.sys.(replayable), q.tr, v, until)
	for k, x := range items {
		v[k] = x
	}
	for k, x := range ctlPerOp {
		perOp[k] = x
		control += x
	}
	var ledger float64
	for _, x := range perOp {
		ledger += x
	}
	// Replayed without the tracer, so measured against the untraced op.
	opNs := wr.EndToEnd["op_ns"]
	v["switchd.self_ns"] = v["switchd.receive_ns"] - perOp["packet.decode"] - perOp["guard.check"] - perOp["runtime.exec"] - perOp["packet.encode"]
	v["ledger.coverage"] = ratio(ledger, opNs)
	v["ledger.control_share"] = ratio(control, opNs)
	if c := v["ledger.coverage"]; c < 0.8 || c > 1.2 {
		wr.Notes = append(wr.Notes, fmt.Sprintf(
			"ledger covers %.2f of op_ns (%.0f of %.0f ns); not replayed: switchd.self_ns %.0f ns/op, netsim.step_self_ns beyond bare events %.0f ns/op (closures the layers schedule on the engine, e.g. controller continuations)",
			c, ledger, opNs, v["switchd.self_ns"], v["netsim.step_self_ns"]-perOp["netsim.event"]))
	}
	return nil
}
