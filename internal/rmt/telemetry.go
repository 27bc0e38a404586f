package rmt

import "activermt/internal/telemetry"

// AttachTelemetry registers the device's metric families in reg — each reads
// the count where the device, a stage or its register array keeps it, and
// per-stage occupancy from the published pipeline view — and starts the
// per-packet latency histogram, the one number the device keeps only when
// telemetry asks for it. Attach before traffic starts.
func (d *Device) AttachTelemetry(reg *telemetry.Registry) {
	d.lat = &telemetry.Histogram{}
	reg.Counter("activermt_device_packets_total", "packets entering the pipeline", &d.PacketsIn)
	reg.Counter("activermt_device_packets_dropped_total", "packets dropped by execution (DROP, recirculation limit, faults)", &d.PacketsDropped)
	reg.Counter("activermt_device_recirculations_total", "pipeline recirculations", &d.Recirculations)
	reg.Histogram("activermt_packet_latency_ns", "modeled per-packet pipeline latency", func() *telemetry.Histogram { return d.lat })
	stage := func(name, help string, v func(st *Stage) uint64) {
		reg.StageVec(name, help, telemetry.KindCounter, len(d.stages), func(s int) float64 { return float64(v(d.stages[s])) })
	}
	stage("activermt_stage_executed_total", "instructions executed per physical stage", func(st *Stage) uint64 { return st.Executed })
	stage("activermt_stage_register_reads_total", "register reads per physical stage", func(st *Stage) uint64 { return st.Registers.Reads })
	stage("activermt_stage_register_writes_total", "register writes per physical stage", func(st *Stage) uint64 { return st.Registers.Writes })
	stage("activermt_stage_register_faults_total", "protection faults per physical stage", func(st *Stage) uint64 { return st.Registers.Faults })
	reg.StageVec("activermt_stage_occupancy_words", "register words covered by installed grants per physical stage",
		telemetry.KindGauge, len(d.stages), func(s int) float64 {
			var words uint32
			for _, r := range d.View().StageView(s).Regions() {
				words += r.Hi - r.Lo
			}
			return float64(words)
		})
}
