package runtime

import (
	"strconv"

	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// Telemetry is the runtime's pre-registered metric handle set. The packet
// path's counters mirror the Runtime's exported fields (publishTelemetry,
// per capsule in ExecuteProgram); gauges describing committed control state
// (admission counts, per-FID epochs, per-stage occupancy) are updated
// exclusively inside publish() under the registry's commit seqlock, which is
// what makes a scrape epoch-consistent across a grant commit.
type Telemetry struct {
	reg *telemetry.Registry

	ProgramsRun, Passthrough, Faults *telemetry.Counter
	RecircThrottled, PrivSuppressed  *telemetry.Counter
	QuarantineDrops, RevokedDrops    *telemetry.Counter
	Specialized, PlanCompiles        *telemetry.Counter
	TableOps                         *telemetry.Counter

	Admitted, Quarantined, Revoked *telemetry.Gauge
	SnapshotGen                    *telemetry.Gauge
	Epochs                         *telemetry.GaugeVec
}

// AttachTelemetry registers the runtime's and its device's metric set in
// reg and returns the handle set. It also installs the grant-liveness
// resolver for flight-recorder entries and the packet path's flight
// recorder, and republishes the control snapshot so every gauge starts
// populated. Attach once, before traffic starts.
func (r *Runtime) AttachTelemetry(reg *telemetry.Registry) *Telemetry {
	t := &Telemetry{
		reg:             reg,
		ProgramsRun:     reg.NewCounter("activermt_runtime_programs_run_total", "capsules executed through the pipeline"),
		Passthrough:     reg.NewCounter("activermt_runtime_passthrough_total", "capsules of unadmitted FIDs forwarded unexecuted"),
		Faults:          reg.NewCounter("activermt_runtime_faults_total", "capsules that raised a protection fault"),
		RecircThrottled: reg.NewCounter("activermt_runtime_recirc_throttled_total", "capsules dropped by the recirculation fairness controller"),
		PrivSuppressed:  reg.NewCounter("activermt_runtime_priv_suppressed_total", "privileged instructions suppressed by the privilege table"),
		QuarantineDrops: reg.NewCounter("activermt_runtime_quarantine_drops_total", "capsules dropped while their FID was deactivated"),
		RevokedDrops:    reg.NewCounter("activermt_runtime_revoked_drops_total", "capsules dropped because their grant was revoked"),
		Specialized:     reg.NewCounter("activermt_runtime_specialized_total", "capsules executed through a compiled plan"),
		PlanCompiles:    reg.NewCounter("activermt_runtime_plan_compiles_total", "program-to-plan compilations performed"),
		TableOps:        reg.NewCounter("activermt_runtime_table_ops_total", "cumulative control-plane table update operations"),
		Admitted:        reg.NewGauge("activermt_runtime_admitted", "currently admitted FIDs"),
		Quarantined:     reg.NewGauge("activermt_runtime_quarantined", "FIDs currently deactivated for reallocation"),
		Revoked:         reg.NewGauge("activermt_runtime_revoked", "FIDs whose grant was revoked and not re-admitted"),
		SnapshotGen:     reg.NewGauge("activermt_runtime_snapshot_gen", "generation of the published control snapshot"),
		Epochs:          reg.NewGaugeVec("activermt_grant_epoch", "current grant epoch per FID", "fid"),
	}
	r.dev.AttachTelemetry(rmt.NewTelemetry(reg, r.dev.NumStages()))

	// A flight entry is live iff its (FID, epoch) is still the currently
	// installed grant in the published control view — an atomic load, so
	// the scrape goroutine may resolve it at snapshot time.
	reg.SetLiveness(func(fid uint16, epoch uint8) bool {
		row := r.view().row(fid)
		return row.admitted && row.epoch == epoch
	})

	r.fr = telemetry.NewFlightRecorder(0, telemetry.DefaultFlightSize, telemetry.DefaultFlightPeriod)
	reg.AttachFlight(r.fr)

	r.tel = t
	r.publish() // populate the gauges under a first commit
	return t
}

// publishTelemetry stores the packet path's counters — the runtime's and,
// through it, the device's — into their metrics. ExecuteProgram calls it
// after every capsule, so a scrape lags the fields by at most the capsule in
// flight. RecircThrottled, PlanCompiles and TableOps are added to where they
// are counted: a commit on another goroutine may count them.
func (r *Runtime) publishTelemetry() {
	t := r.tel
	t.ProgramsRun.Set(r.ProgramsRun)
	t.Passthrough.Set(r.Passthrough)
	t.Faults.Set(r.Faults)
	t.PrivSuppressed.Set(r.PrivSuppressed)
	t.QuarantineDrops.Set(r.QuarantineDrops)
	t.RevokedDrops.Set(r.RevokedDrops)
	t.Specialized.Set(r.SpecializedRuns)
	r.dev.PublishTelemetry()
}

// syncGauges updates every committed-control-state gauge from the view just
// published. Called only from publish(), inside the commit window.
func (r *Runtime) syncGauges(v *ctrlView) {
	t := r.tel
	var admitted, quarantined, revoked int64
	for _, row := range v.rows {
		admitted += b2i(row.admitted)
		quarantined += b2i(row.quarantined)
		revoked += b2i(row.revoked)
		if row.epoch != 0 {
			t.Epochs.With(strconv.FormatUint(uint64(row.fid), 10)).Set(int64(row.epoch))
		}
	}
	t.Admitted.Set(admitted)
	t.Quarantined.Set(quarantined)
	t.Revoked.Set(revoked)
	t.SnapshotGen.Set(int64(v.gen))
	r.dev.SyncOccupancy()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
