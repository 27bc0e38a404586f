package rmt

import (
	"strconv"

	"activermt/internal/telemetry"
)

// Telemetry is the device's pre-registered metric handle set. All handles
// are created at attach time; the packet path never looks anything up by
// name. The counters mirror the device's own fields: PublishTelemetry stores
// the fields into them between packets, so execution itself counts without
// synchronization; the latency histogram is observed once per packet.
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

// AttachTelemetry installs the metric handles; subsequent publishes and
// occupancy syncs feed them. Attach before traffic starts.
func (d *Device) AttachTelemetry(t *Telemetry) { d.tel = t }

// PublishTelemetry stores the device, stage and register-array counters into
// the metrics AttachTelemetry installed. The caller is the goroutine that
// executes packets (the runtime, once per capsule, when it has telemetry
// itself): a capsule touched a handful of stages, and Counter.Set skips the
// ones that did not move.
func (d *Device) PublishTelemetry() {
	t := d.tel
	t.PacketsIn.Set(d.PacketsIn)
	t.PacketsDropped.Set(d.PacketsDropped)
	t.Recirculations.Set(d.Recirculations)
	for i, st := range d.stages {
		t.StageExecuted[i].Set(st.Executed)
		t.RegReads[i].Set(st.Registers.Reads)
		t.RegWrites[i].Set(st.Registers.Writes)
		t.RegFaults[i].Set(st.Registers.Faults)
	}
}

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
