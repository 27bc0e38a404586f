package soak

import (
	"fmt"
	"io"
	"math"
	"time"

	"activermt/internal/telemetry"
)

// flightRing is the harness's flight recorder: a bounded ring of the most
// recent fault injections, link transitions, and recovery actions, dumped
// into the first Violation so a failed soak is diagnosable from the report
// alone — the run may be hours of virtual time deep when it trips.
type flightRing struct {
	entries []string
	next    int
	full    bool
}

func newFlightRing(size int) *flightRing {
	return &flightRing{entries: make([]string, size)}
}

func (r *flightRing) note(at time.Duration, format string, args ...any) {
	r.entries[r.next] = fmt.Sprintf("%12v  %s", at, fmt.Sprintf(format, args...))
	r.next = (r.next + 1) % len(r.entries)
	if r.next == 0 {
		r.full = true
	}
}

// dump returns the ring oldest-first, followed by the telemetry registry's
// own flight-recorder entries (per-capsule execution samples, when a switch
// runtime is attached).
func (r *flightRing) dump(reg *telemetry.Registry) []string {
	var out []string
	if r.full {
		out = append(out, r.entries[r.next:]...)
	}
	out = append(out, r.entries[:r.next]...)
	if reg != nil {
		snap := reg.Snapshot()
		for _, e := range snap.Flights {
			out = append(out, fmt.Sprintf("flight: fid=%d verdict=%s", e.FID, e.Verdict))
		}
	}
	return out
}

// histQuantile reads the q-quantile out of a power-of-two histogram:
// the inclusive upper bound of the bucket where the cumulative count
// crosses the target rank. Resolution is a factor of two — good enough to
// catch a tail-latency regression, which moves the p99 by orders of
// magnitude, not percent.
func histQuantile(hs *telemetry.Histogram, q float64) uint64 {
	if hs.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(hs.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range hs.Buckets {
		cum += b
		if cum >= target {
			return telemetry.BucketBound(i)
		}
	}
	return telemetry.BucketBound(telemetry.NumBuckets - 1)
}

// csvWriter emits one row per epoch; a nil underlying writer disables it.
// The secapps columns are appended only when the security-app families run,
// so a baseline soak's CSV stays bit-identical to earlier releases.
type csvWriter struct {
	w       io.Writer
	secapps bool
}

func newCSVWriter(w io.Writer, secapps bool) *csvWriter {
	return &csvWriter{w: w, secapps: secapps}
}

func (c *csvWriter) header() {
	if c.w == nil {
		return
	}
	fmt.Fprint(c.w, "epoch,t_ms,reads_done,writes_acked,hits,lost,p99_ns,degraded,tenants,reroutes,chaos,reconciles,violations,max_frag,defrag_migrations")
	if c.secapps {
		fmt.Fprint(c.w, ",syn_sent,syn_alarms,rl_offered,rl_delivered,hh_observed,hh_claims,hh_deferred")
	}
	fmt.Fprintln(c.w)
}

func (c *csvWriter) row(h *harness) {
	if c.w == nil {
		return
	}
	p99, _ := h.readP99()
	degraded := 0
	if h.cc.Degraded() {
		degraded = 1
	}
	frag := 0.0
	var migrations uint64
	for _, n := range h.f.Nodes() {
		if f := n.Ctrl.Allocator().Fragmentation(); f > frag {
			frag = f
		}
		migrations += n.Ctrl.DefragMigrations
	}
	fmt.Fprintf(c.w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d",
		h.res.Epochs, h.f.Eng.Now().Milliseconds(),
		h.res.ReadsDone, h.res.Acked, h.res.Hits, h.res.Lost,
		p99.Nanoseconds(), degraded, len(h.tenants),
		h.f.Reroutes, h.res.ChaosInstalled, h.res.Reconciles,
		len(h.res.Violations), frag, migrations)
	if c.secapps {
		fmt.Fprintf(c.w, ",%d,%d,%d,%d,%d,%d,%d",
			h.res.SynSent, h.res.SynAlarms, h.res.RLOffered, h.res.RLDelivered,
			h.res.HHObserved, h.res.HHClaims, h.res.HHDeferred)
	}
	fmt.Fprintln(c.w)
}
