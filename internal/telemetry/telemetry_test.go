package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// famOf returns the named family of a snapshot (the zero family if absent).
func famOf(s *Snapshot, name string) MetricSnapshot {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m
		}
	}
	return MetricSnapshot{Samples: []Sample{{Value: -1, Hist: &Histogram{}}}}
}

// TestCounterConcurrent: a counter lives in its owner's plain field and is
// read where it lives, on the owner's goroutine; other goroutines read it
// only through published snapshots, which under -race must share nothing
// with the writer — and every one they see is a total the writer reached.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	var pkts uint64
	reg.Counter("x_total", "", &pkts)
	reg.Publish()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := famOf(reg.Published(), "x_total").Samples[0].Value
				if v < last || int(v)%100 != 0 {
					t.Errorf("published total %v after %v: not a published step", v, last)
					return
				}
				last = v
			}
		}()
	}
	for i := 0; i < 500; i++ {
		for j := 0; j < 100; j++ {
			pkts++
		}
		reg.Publish()
	}
	close(stop)
	readers.Wait()
	if got := famOf(reg.Published(), "x_total").Samples[0].Value; got != 50000 {
		t.Fatalf("final published total = %v, want 50000", got)
	}
}

// TestCounterZeroAlloc: what the packet path does per capsule with
// telemetry on — bump a plain counter, observe the latency histogram —
// allocates nothing.
func TestCounterZeroAlloc(t *testing.T) {
	var c uint64
	h := &Histogram{}
	if avg := testing.AllocsPerRun(100, func() {
		c++
		h.Observe(123)
	}); avg != 0 {
		t.Fatalf("metric ops allocate %.2f/op, want 0", avg)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := &Histogram{}
	reg.Histogram("lat_ns", "", func() *Histogram { return h })
	h.Observe(0)   // bucket 0
	h.Observe(1)   // bucket 1
	h.Observe(2)   // bucket 2
	h.Observe(3)   // bucket 2
	h.Observe(900) // bucket 10 (512..1023)
	if h.Count != 5 || h.Sum != 906 {
		t.Fatalf("count/sum = %d/%d", h.Count, h.Sum)
	}
	got := famOf(reg.Snapshot(), "lat_ns").Samples[0].Hist
	b := got.Buckets
	if b[0] != 1 || b[1] != 1 || b[2] != 2 || b[10] != 1 {
		t.Fatalf("bucket layout wrong: %v", b[:12])
	}
	// Clamp: a huge value lands in the top bucket, not out of range; the
	// snapshot taken before it is a copy and does not move.
	h.Observe(1 << 62)
	if got.Count != 5 || famOf(reg.Snapshot(), "lat_ns").Samples[0].Hist.Buckets[NumBuckets-1] != 1 {
		t.Fatal("overflow value not clamped into top bucket, or the earlier snapshot aliased the histogram")
	}
}

func TestVecChildren(t *testing.T) {
	reg := NewRegistry()
	exec := []uint64{6, 7}
	reg.StageVec("stage_exec_total", "", KindCounter, len(exec), func(s int) float64 { return float64(exec[s]) })
	reg.Vec("tenant_blocks", "", KindGauge, "fid", func(add func(string, float64)) { add("3", 12) })

	snap := reg.Snapshot()
	if len(snap.Metrics) != 2 {
		t.Fatalf("%d metrics", len(snap.Metrics))
	}
	cs := snap.Metrics[0]
	if cs.Type != "counter" || cs.Samples[0].Labels != `stage="0"` || cs.Samples[0].Value != 6 {
		t.Fatalf("child 0: %+v", cs)
	}
	if cs.Samples[1].Labels != `stage="1"` || cs.Samples[1].Value != 7 {
		t.Fatalf("child 1: %+v", cs.Samples[1])
	}
	if g := snap.Metrics[1]; g.Type != "gauge" || g.Samples[0].Labels != `fid="3"` || g.Samples[0].Value != 12 {
		t.Fatalf("gauge vec: %+v", g)
	}
	exec[1]++ // read where it lives: the next snapshot sees it
	if v := famOf(reg.Snapshot(), "stage_exec_total").Samples[1].Value; v != 8 {
		t.Fatalf("stage 1 after an increment = %v, want 8", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	var v uint64
	reg.Counter("dup", "", &v)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Gauge("dup", "", func() float64 { return 0 })
}

// TestSnapshotNeverTorn: the simulation goroutine commits two gauges in
// lockstep and publishes between commits — the only place a snapshot is
// taken — while scrapers read the published snapshot concurrently: every one
// they see holds a == b, i.e. no snapshot lands inside a commit.
func TestSnapshotNeverTorn(t *testing.T) {
	reg := NewRegistry()
	var a, b int
	reg.Gauge("a", "", func() float64 { return float64(a) })
	reg.Gauge("b", "", func() float64 { return float64(b) })
	reg.Publish()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Published()
				if va, vb := famOf(snap, "a").Samples[0].Value, famOf(snap, "b").Samples[0].Value; va != vb {
					t.Errorf("torn snapshot: a=%v b=%v", va, vb)
					return
				}
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		a = i // a commit: both gauges move before anything is published
		b = i
		reg.Publish()
	}
	close(stop)
	scrapers.Wait()
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4, 1)
	for i := uint16(1); i <= 6; i++ {
		f.Record(FlightEntry{FID: i, Verdict: VerdictExecuted})
	}
	got := f.Entries()
	if len(got) != 4 {
		t.Fatalf("%d entries, want 4 (ring size)", len(got))
	}
	// Oldest-first: FIDs 3,4,5,6 with sequence numbers 3..6.
	for i, e := range got {
		if e.FID != uint16(3+i) || e.Seq != uint64(3+i) {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
	if f.Recorded() != 6 {
		t.Fatalf("recorded = %d", f.Recorded())
	}
}

func TestFlightSampling(t *testing.T) {
	f := NewFlightRecorder(8, 4)
	hits := 0
	for i := 0; i < 32; i++ {
		if f.ShouldSample() {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("sampled %d of 32 at period 4", hits)
	}
}

func TestFlightLiveness(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(8, 1)
	reg.AttachFlight(f, func(fid uint16, epoch uint8) bool { return fid == 1 && epoch == 2 })
	f.Record(FlightEntry{FID: 1, Epoch: 2})
	f.Record(FlightEntry{FID: 1, Epoch: 1}) // stale epoch
	f.Record(FlightEntry{FID: 9, Epoch: 2}) // revoked tenant
	snap := reg.Snapshot()
	if len(snap.Flights) != 3 {
		t.Fatalf("%d flights", len(snap.Flights))
	}
	if !snap.Flights[0].Live || snap.Flights[1].Live || snap.Flights[2].Live {
		t.Fatalf("liveness wrong: %+v", snap.Flights)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	pkts := uint64(3)
	reg.Counter("pkts_total", "packets seen", &pkts)
	h := &Histogram{}
	reg.Histogram("lat_ns", "latency", func() *Histogram { return h })
	h.Observe(1)
	h.Observe(600)
	var sb strings.Builder
	if err := WritePrometheus(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP pkts_total packets seen",
		"# TYPE pkts_total counter",
		"pkts_total 3",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="1"} 1`,
		`lat_ns_bucket{le="1023"} 2`,
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 601",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHTTPEndpoints: the endpoints serve the published snapshot — not the
// live fields — until the simulation publishes again.
func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	x := uint64(9)
	reg.Counter("x_total", "", &x)
	f := NewFlightRecorder(4, 1)
	reg.AttachFlight(f, func(uint16, uint8) bool { return true })
	f.Record(FlightEntry{FID: 7})
	mux := Handler(reg)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec
	}
	if body := get("/metrics").Body.String(); body != "" {
		t.Fatalf("/metrics before the first publish: %q", body)
	}
	reg.Publish()
	x = 10 // not yet published
	if body := get("/metrics").Body.String(); !strings.Contains(body, "x_total 9") {
		t.Fatalf("/metrics: %s", body)
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snap.Metrics) != 1 || snap.Metrics[0].Samples[0].Value != 9 {
		t.Fatalf("json snapshot: %+v", snap)
	}
	var fl Snapshot
	if err := json.Unmarshal(get("/flight").Body.Bytes(), &fl); err != nil {
		t.Fatalf("/flight: %v", err)
	}
	if len(fl.Flights) != 1 || fl.Flights[0].FID != 7 || !fl.Flights[0].Live {
		t.Fatalf("flight snapshot: %+v", fl)
	}
	reg.Publish()
	if body := get("/metrics").Body.String(); !strings.Contains(body, "x_total 10") {
		t.Fatalf("/metrics after the second publish: %s", body)
	}
	if body := get("/debug/pprof/cmdline").Body.String(); body == "" {
		t.Fatal("pprof not wired")
	}
}
