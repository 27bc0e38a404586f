package switchd

import (
	"slices"
	"strconv"

	"activermt/internal/telemetry"
)

// AttachTelemetry registers the controller's metric families and the
// allocator's, each read where the number lives: the provisioning records
// (Figure 8a's breakdown — compute, snapshot window, table updates — in
// virtual-time nanoseconds), the fault and defragmentation counters, and the
// books of whichever allocator is current — a crash replaces them, so every
// read goes through c.al at collection.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	reg.Vec("activermt_ctrl_jobs_total", "Control-plane jobs completed, by kind.", telemetry.KindCounter, "kind",
		func(add func(string, float64)) {
			var kinds []JobKind
			n := map[JobKind]int{}
			for _, rec := range c.Records {
				if n[rec.Kind]++; n[rec.Kind] == 1 {
					kinds = append(kinds, rec.Kind)
				}
			}
			for _, k := range kinds {
				add(string(k), float64(n[k]))
			}
		})
	reg.CounterFunc("activermt_ctrl_failures_total", "Control-plane jobs that concluded in failure.", func() uint64 {
		var n uint64
		for _, rec := range c.Records {
			if rec.Failed {
				n++
			}
		}
		return n
	})
	recordHist := func(name, help string, v func(ProvisionRecord) (uint64, bool)) {
		reg.Histogram(name, help, func() *telemetry.Histogram {
			h := &telemetry.Histogram{}
			for _, rec := range c.Records {
				if x, ok := v(rec); ok {
					h.Observe(x)
				}
			}
			return h
		})
	}
	recordHist("activermt_ctrl_provision_duration_ns", "End-to-end provisioning time per job (virtual ns).",
		func(rec ProvisionRecord) (uint64, bool) { return uint64(rec.End - rec.Start), true })
	recordHist("activermt_ctrl_snapshot_wait_ns", "Snapshot-window wait per reallocation (virtual ns).",
		func(rec ProvisionRecord) (uint64, bool) { return uint64(rec.SnapshotWait), rec.SnapshotWait > 0 })
	recordHist("activermt_ctrl_table_time_ns", "Table-update time per job (virtual ns).",
		func(rec ProvisionRecord) (uint64, bool) { return uint64(rec.TableTime), rec.TableTime > 0 })
	reg.Counter("activermt_ctrl_crashes_total", "Control-plane crashes injected.", &c.Crashes)
	reg.Counter("activermt_ctrl_restarts_total", "Control-plane restarts (table read-back recoveries).", &c.Restarts)
	reg.Counter("activermt_ctrl_digests_dropped_total", "Digests dropped by a dead controller.", &c.DigestsDropped)
	reg.Counter("activermt_ctrl_snapshot_escalations_total", "Realloc notices re-sent to laggard clients.", &c.SnapshotEscalations)
	reg.Counter("activermt_ctrl_snapshot_timeouts_total", "Snapshot windows ended by timeout.", &c.SnapshotTimeouts)
	reg.Counter("activermt_ctrl_evacuations_total", "Applications re-placed around quarantined blocks.", &c.Evacuations)
	reg.Counter("activermt_ctrl_quarantined_blocks_total", "Blocks fenced off by sweep-and-repair.", &c.QuarantinedBlockCount)
	reg.Counter("activermt_ctrl_guard_quarantines_total", "Guard-escalated tenant quarantines applied.", &c.GuardQuarantines)
	reg.Counter("activermt_ctrl_guard_evictions_total", "Guard-escalated tenant evictions applied.", &c.GuardEvictions)
	reg.Counter("activermt_ctrl_readmissions_total", "Recovered tenants re-admitted after a controller restart.", &c.Readmissions)
	reg.Counter("activermt_ctrl_defrag_passes_total", "Online defragmentation passes that migrated a tenant.", &c.DefragPasses)
	reg.Counter("activermt_ctrl_defrag_migrations_total", "Tenants live-migrated by defragmentation.", &c.DefragMigrations)
	reg.Counter("activermt_ctrl_defrag_blocks_moved_total", "Blocks re-homed by defragmentation migrations.", &c.DefragBlocksMoved)
	reg.Counter("activermt_ctrl_defrag_words_restored_total", "Register words copied via snapshot->restore during migration.", &c.DefragWordsRestored)

	stages := c.al.Config().NumStages
	used := func() (n int) {
		for s := 0; s < stages; s++ {
			n += c.al.StageUsed(s)
		}
		return n
	}
	reg.Gauge("activermt_alloc_blocks_used", "Allocated blocks across all stages (pinned + elastic).", func() float64 { return float64(used()) })
	reg.Gauge("activermt_alloc_blocks_quarantined", "Blocks fenced off under the reserved quarantine owner.",
		func() float64 { return float64(c.al.QuarantinedBlocks()) })
	reg.Gauge("activermt_alloc_tenants", "Resident applications in the allocation books.", func() float64 { return float64(c.al.NumApps()) })
	reg.Gauge("activermt_alloc_utilization", "Fraction of total register memory allocated (Figure 7a).", func() float64 { return c.al.Utilization() })
	reg.Gauge("activermt_alloc_fragmentation", "Fraction of free blocks outside each stage's largest free hole.",
		func() float64 { return c.al.Fragmentation() })
	var seen []uint16 // FIDs a collection has exposed, so departed tenants read 0
	reg.Vec("activermt_alloc_tenant_blocks", "Blocks held per tenant across all stages.", telemetry.KindGauge, "fid",
		func(add func(string, float64)) {
			for _, fid := range c.al.FIDs() {
				if i, ok := slices.BinarySearch(seen, fid); !ok {
					seen = slices.Insert(seen, i, fid)
				}
			}
			for _, fid := range seen {
				blocks := 0
				if app, ok := c.al.App(fid); ok {
					blocks = app.TotalBlocks()
				}
				add(strconv.Itoa(int(fid)), float64(blocks))
			}
		})
	reg.StageVec("activermt_alloc_stage_blocks_used", "Allocated blocks per stage.", telemetry.KindGauge, stages,
		func(s int) float64 { return float64(c.al.StageUsed(s)) })
	reg.Vec("activermt_alloc_relayouts_total", "Elastic re-layouts, by kind: inplace (residents kept their regions) or full (everything re-laid).",
		telemetry.KindCounter, "kind", func(add func(string, float64)) {
			inplace, full := c.al.Relayouts()
			add("inplace", float64(c.relayoutsLost[0]+inplace))
			add("full", float64(c.relayoutsLost[1]+full))
		})
}
