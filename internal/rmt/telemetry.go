package rmt

import (
	"strconv"

	"activermt/internal/telemetry"
)

// Telemetry is the device's pre-registered metric handle set. All handles
// are created at attach time; the packet path never looks anything up by
// name. Counters are fed exclusively by ExecStats.FlushInto (after every
// packet on the system path), so enabling telemetry adds no synchronization
// to execution itself; the latency histogram accumulates in ExecStats.Lat
// the same way.
type Telemetry struct {
	PacketsIn, PacketsDropped, Recirculations *telemetry.Counter

	// Per-physical-stage handles, indexed by stage.
	StageExecuted  []*telemetry.Counter
	RegReads       []*telemetry.Counter
	RegWrites      []*telemetry.Counter
	RegFaults      []*telemetry.Counter
	StageOccupancy []*telemetry.Gauge

	// Latency is the per-packet pipeline latency histogram (nanoseconds,
	// power-of-two buckets).
	Latency *telemetry.Histogram
}

// NewTelemetry creates and registers the device metric set for a pipeline
// of numStages stages.
func NewTelemetry(reg *telemetry.Registry, numStages int) *Telemetry {
	t := &Telemetry{
		PacketsIn:      reg.NewCounter("activermt_device_packets_total", "packets entering the pipeline"),
		PacketsDropped: reg.NewCounter("activermt_device_packets_dropped_total", "packets dropped by execution (DROP, recirculation limit, faults)"),
		Recirculations: reg.NewCounter("activermt_device_recirculations_total", "pipeline recirculations"),
		Latency:        reg.NewHistogram("activermt_packet_latency_ns", "modeled per-packet pipeline latency"),
	}
	exec := reg.NewCounterVec("activermt_stage_executed_total", "instructions executed per physical stage", "stage")
	reads := reg.NewCounterVec("activermt_stage_register_reads_total", "register reads per physical stage", "stage")
	writes := reg.NewCounterVec("activermt_stage_register_writes_total", "register writes per physical stage", "stage")
	faults := reg.NewCounterVec("activermt_stage_register_faults_total", "protection faults per physical stage", "stage")
	occ := reg.NewGaugeVec("activermt_stage_occupancy_words", "register words covered by installed grants per physical stage", "stage")
	for s := 0; s < numStages; s++ {
		l := strconv.Itoa(s)
		t.StageExecuted = append(t.StageExecuted, exec.With(l))
		t.RegReads = append(t.RegReads, reads.With(l))
		t.RegWrites = append(t.RegWrites, writes.With(l))
		t.RegFaults = append(t.RegFaults, faults.With(l))
		t.StageOccupancy = append(t.StageOccupancy, occ.With(l))
	}
	return t
}

// AttachTelemetry installs the metric handles; subsequent stat flushes and
// occupancy syncs feed them. Attach before traffic starts.
func (d *Device) AttachTelemetry(t *Telemetry) { d.tel = t }

// SyncOccupancy recomputes the per-stage occupancy gauges from the published
// pipeline view. The runtime calls it inside its commit window so a scrape
// never sees occupancy from one grant commit and admission state from
// another.
func (d *Device) SyncOccupancy() {
	t := d.tel
	if t == nil {
		return
	}
	v := d.view.Load()
	for s := range d.stages {
		var words int64
		for _, r := range v.StageView(s).Regions() {
			words += int64(r.Hi - r.Lo)
		}
		t.StageOccupancy[s].Set(words)
	}
}
