package runtime

import (
	"strconv"

	"activermt/internal/telemetry"
)

// AttachTelemetry registers the runtime's and its device's metric families in
// reg. The counters read the exported fields ExecuteProgram and the
// control-plane mutators count in; the admission gauges are computed from the
// admission table at collection, on the goroutine that drives the runtime, so
// a snapshot sees exactly the committed state the packet path executes
// against. It also starts the packet path's flight recorder, whose entries
// resolve live against that same table. Attach once, before traffic starts.
func (r *Runtime) AttachTelemetry(reg *telemetry.Registry) {
	reg.Counter("activermt_runtime_programs_run_total", "capsules executed through the pipeline", &r.ProgramsRun)
	reg.Counter("activermt_runtime_passthrough_total", "capsules of unadmitted FIDs forwarded unexecuted", &r.Passthrough)
	reg.Counter("activermt_runtime_faults_total", "capsules that raised a protection fault", &r.Faults)
	reg.Counter("activermt_runtime_recirc_throttled_total", "capsules dropped by the recirculation fairness controller", &r.RecircThrottled)
	reg.Counter("activermt_runtime_quarantine_drops_total", "capsules dropped while their FID was deactivated", &r.QuarantineDrops)
	reg.Counter("activermt_runtime_revoked_drops_total", "capsules dropped because their grant was revoked", &r.RevokedDrops)
	reg.Counter("activermt_runtime_specialized_total", "capsules executed through a compiled plan", &r.SpecializedRuns)
	reg.Counter("activermt_runtime_plan_compiles_total", "program-to-plan compilations performed", &r.PlanCompiles)
	reg.Counter("activermt_runtime_table_ops_total", "cumulative control-plane table update operations", &r.TableOps)
	rows := func(name, help string, is func(fidRow) bool) {
		reg.Gauge(name, help, func() float64 {
			n := 0
			for _, row := range r.rows {
				if is(row) {
					n++
				}
			}
			return float64(n)
		})
	}
	rows("activermt_runtime_admitted", "currently admitted FIDs", func(row fidRow) bool { return row.admitted })
	rows("activermt_runtime_quarantined", "FIDs currently deactivated for reallocation", func(row fidRow) bool { return row.quarantined })
	rows("activermt_runtime_revoked", "FIDs whose grant was revoked and not re-admitted", func(row fidRow) bool { return row.revoked })
	reg.Gauge("activermt_runtime_snapshot_gen", "control-plane commits the runtime has made", func() float64 { return float64(r.gen) })
	reg.Vec("activermt_grant_epoch", "current grant epoch per FID", telemetry.KindGauge, "fid", func(add func(string, float64)) {
		for _, row := range r.rows {
			if row.epoch != 0 {
				add(strconv.Itoa(int(row.fid)), float64(row.epoch))
			}
		}
	})
	r.dev.AttachTelemetry(reg)

	r.fr = telemetry.NewFlightRecorder(telemetry.DefaultFlightSize, telemetry.DefaultFlightPeriod)
	reg.AttachFlight(r.fr, func(fid uint16, epoch uint8) bool {
		row := r.rowOf(fid)
		return row.admitted && row.epoch == epoch
	})
}
