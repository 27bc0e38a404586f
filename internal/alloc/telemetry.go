package alloc

import (
	"sort"
	"strconv"

	"activermt/internal/telemetry"
)

// Telemetry holds the allocator's occupancy gauges. It is deliberately a
// separate object from the Allocator: the controller replaces its allocator
// wholesale on a crash (Crash builds a fresh one and Restart repopulates it
// from the switch tables), and re-registering metrics on every restart would
// panic the registry. Instead one Telemetry outlives every allocator
// incarnation — the controller hands it to each fresh allocator via
// SetTelemetry, and the gauges simply resync to the new books.
//
// All gauges update together inside one registry commit window (syncTel), so
// a concurrent Snapshot never observes a half-applied allocation: either the
// whole mutation (blocks, per-tenant counts, per-stage occupancy,
// fragmentation) is visible, or none of it is.
type Telemetry struct {
	reg *telemetry.Registry

	BlocksUsed        *telemetry.Gauge
	BlocksQuarantined *telemetry.Gauge
	Tenants           *telemetry.Gauge
	Utilization       *telemetry.FloatGauge
	Fragmentation     *telemetry.FloatGauge
	TenantBlocks      *telemetry.GaugeVec // label: fid
	StageBlocks       *telemetry.GaugeVec // label: stage
	// Relayouts counts elastic re-layouts by how they were realised: in
	// place, or by the full re-lay the in-place path fell back to.
	Relayouts *telemetry.CounterVec // label: kind

	// Durations of allocator entry points, observed by the controller
	// (virtual-time nanoseconds for protocol phases, wall-clock for compute).
	reallocs *telemetry.Counter

	seen map[uint16]bool // fids ever exported, so departures zero out
}

// relayoutKinds labels Allocator.relayouts.
var relayoutKinds = [2]string{"inplace", "full"}

// NewTelemetry builds the allocator metric set and registers it.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	t := &Telemetry{
		reg:               reg,
		BlocksUsed:        telemetry.NewGauge("activermt_alloc_blocks_used", "Allocated blocks across all stages (pinned + elastic)."),
		BlocksQuarantined: telemetry.NewGauge("activermt_alloc_blocks_quarantined", "Blocks fenced off under the reserved quarantine owner."),
		Tenants:           telemetry.NewGauge("activermt_alloc_tenants", "Resident applications in the allocation books."),
		Utilization:       telemetry.NewFloatGauge("activermt_alloc_utilization", "Fraction of total register memory allocated (Figure 7a)."),
		Fragmentation:     telemetry.NewFloatGauge("activermt_alloc_fragmentation", "Fraction of free blocks outside each stage's largest free hole."),
		TenantBlocks:      telemetry.NewGaugeVec("activermt_alloc_tenant_blocks", "Blocks held per tenant across all stages.", "fid"),
		StageBlocks:       telemetry.NewGaugeVec("activermt_alloc_stage_blocks_used", "Allocated blocks per stage.", "stage"),
		Relayouts:         telemetry.NewCounterVec("activermt_alloc_relayouts_total", "Elastic re-layouts, by kind: inplace (residents kept their regions) or full (everything re-laid).", "kind"),
		reallocs:          telemetry.NewCounter("activermt_alloc_syncs_total", "Allocator mutations reflected into the gauges."),
		seen:              map[uint16]bool{},
	}
	reg.MustRegister(t.BlocksUsed, t.BlocksQuarantined, t.Tenants, t.Utilization,
		t.Fragmentation, t.TenantBlocks, t.StageBlocks, t.Relayouts, t.reallocs)
	return t
}

// SetTelemetry attaches (or hands over) the gauge set and resyncs it to this
// allocator's books. Safe to call with nil (detach).
func (a *Allocator) SetTelemetry(t *Telemetry) {
	a.tel = t
	a.syncTel()
}

// Telemetry returns the attached gauge set (nil when detached), so the
// controller can hand it to a replacement allocator after a crash.
func (a *Allocator) Telemetry() *Telemetry { return a.tel }

// syncTel republishes the occupancy gauges from the books. Called at the end
// of every public mutator; the whole update happens inside one registry
// commit window so scrapes are all-or-nothing.
func (a *Allocator) syncTel() {
	t := a.tel
	if t == nil {
		return
	}
	t.reg.BeginCommit()
	defer t.reg.EndCommit()
	t.reallocs.Inc()
	for i, kind := range relayoutKinds {
		t.Relayouts.With(kind).Add(a.relayouts[i] - a.relayoutsTold[i])
	}
	a.relayoutsTold = a.relayouts

	used, quarantined := 0, 0
	totalFree, largestHoles := 0, 0
	for s := 0; s < a.cfg.NumStages; s++ {
		su := a.pinned[s].used() + a.elastic[s].used()
		used += su
		t.StageBlocks.With(strconv.Itoa(s)).Set(int64(su))
		for _, iv := range a.pinned[s].ivs {
			if iv.fid == QuarantineFID {
				quarantined += iv.Size()
			}
		}
		free, largest := stageHoles(a.pinned[s], a.elastic[s], a.blocks)
		totalFree += free
		largestHoles += largest
	}
	t.BlocksUsed.Set(int64(used))
	t.BlocksQuarantined.Set(int64(quarantined))
	t.Tenants.Set(int64(len(a.apps)))
	t.Utilization.Set(float64(used) / float64(a.cfg.NumStages*a.blocks))
	frag := 0.0
	if totalFree > 0 {
		frag = 1 - float64(largestHoles)/float64(totalFree)
	}
	t.Fragmentation.Set(frag)

	for fid, app := range a.apps {
		t.seen[fid] = true
		t.TenantBlocks.With(strconv.Itoa(int(fid))).Set(int64(app.TotalBlocks()))
	}
	for fid := range t.seen {
		if _, resident := a.apps[fid]; !resident {
			t.TenantBlocks.With(strconv.Itoa(int(fid))).Set(0)
		}
	}
}

// stageHoles returns the free blocks of one stage and the size of its
// largest contiguous free hole, merging the pinned and elastic interval sets.
func stageHoles(pinned, elastic *intervalSet, blocks int) (free, largest int) {
	ivs := make([]BlockRange, 0, len(pinned.ivs)+len(elastic.ivs))
	for _, iv := range pinned.ivs {
		ivs = append(ivs, iv.BlockRange)
	}
	for _, iv := range elastic.ivs {
		ivs = append(ivs, iv.BlockRange)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	at := 0
	for _, r := range ivs {
		if r.Lo > at {
			hole := r.Lo - at
			free += hole
			if hole > largest {
				largest = hole
			}
		}
		if r.Hi > at {
			at = r.Hi
		}
	}
	if blocks > at {
		hole := blocks - at
		free += hole
		if hole > largest {
			largest = hole
		}
	}
	return free, largest
}
