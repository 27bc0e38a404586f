package runtime

import (
	"time"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// This file is the packet path — the one engine every caller runs, through
// the one entry ExecuteProgram (switchd, and so the testbed, fabric and soak;
// the ablations; tests and microbenchmarks). executeOne performs the
// admission checks, PHV construction, pipeline execution (a compiled plan when
// one exists, the interpreter otherwise — see specialize.go), and output
// encoding such that:
//
//   - all per-packet state lives in the runtime's reusable scratch (pooled
//     PHV, pooled output capsules, reusable device-output buffer), so the
//     steady-state loop performs zero heap allocations;
//   - control state is read where the control plane keeps it — the
//     admission rows and the device tables — and compiled plans are checked
//     against their generations (see specialize.go);
//   - counters are the exported fields of the Runtime and its Device, counted
//     in place by the one goroutine that executes capsules, and guard events
//     are buffered — ExecuteProgram delivers them after the capsule has fully
//     executed, before any output leaves.

// GuardEventKind discriminates buffered guard notifications.
type GuardEventKind uint8

// Guard event kinds, mirroring the GuardHook methods.
const (
	GuardEventMemFault GuardEventKind = iota
	GuardEventRecircThrottled
)

// GuardEvent is one buffered GuardHook notification, delivered once the
// capsule that raised it has finished executing.
type GuardEvent struct {
	Kind  GuardEventKind
	FID   uint16
	Stage int
	Addr  uint32
	Owner uint16
	Owned bool
}

// deliverEvents replays the buffered guard events into the installed
// GuardHook and clears the buffer.
func (r *Runtime) deliverEvents() {
	if r.guard != nil {
		for _, ev := range r.events {
			switch ev.Kind {
			case GuardEventMemFault:
				r.guard.MemFault(ev.FID, ev.Stage, ev.Addr, ev.Owner, ev.Owned)
			case GuardEventRecircThrottled:
				r.guard.RecircThrottled(ev.FID)
			}
		}
	}
	r.events = r.events[:0]
}

// flightRefusal force-records a refused capsule into the flight recorder
// (refusals always record; the sampling clock still advances so
// executed-capsule sampling stays uniform). The epoch lookup only happens
// on refusal paths, never per clean packet.
func (r *Runtime) flightRefusal(fid uint16, v telemetry.Verdict) {
	if fr := r.fr; fr != nil {
		fr.ShouldSample()
		fr.Record(telemetry.FlightEntry{FID: fid, Epoch: r.rowOf(fid).epoch, Verdict: v})
	}
}

// outSlot is one reusable output capsule: the Active, its Program, and the
// Output envelope all have stable addresses across reuse.
type outSlot struct {
	out  Output
	act  packet.Active
	prog isa.Program
}

// scratch holds every piece of per-packet state the packet path needs: a
// pooled PHV, the device output buffer, and reusable output capsules. Outputs
// are valid until the next ExecuteProgram call; callers that need to retain an
// output must copy it.
type scratch struct {
	outputs []*Output

	phv     *rmt.PHV
	devOuts []*rmt.PHV
	slots   []*outSlot

	// memo is the direct-mapped plan memo (see specialize.go).
	memo [planMemoSize]planMemoEntry
}

// slot returns reusable output slot i, growing the slot table on first use.
func (res *scratch) slot(i int) *outSlot {
	for len(res.slots) <= i {
		res.slots = append(res.slots, &outSlot{})
	}
	return res.slots[i]
}

// addOutput appends a prepared slot's Output.
func (res *scratch) addOutput(s *outSlot) { res.outputs = append(res.outputs, &s.out) }

// ExecuteProgram runs one program capsule through the pipeline — the only
// entry point, for the system path (switchd, the ablations), tests and
// microbenchmarks alike. Admission checks read the admission rows, the PHV
// and output capsules are reused, and admitted programs execute through
// their compiled plan when one is (or can be) cached under the current
// generations; everything else takes the interpreter (see specialize.go).
// When it returns, the capsule's counts are in the exported runtime and
// device fields — where telemetry reads them — and its buffered guard events
// have been delivered to the hook: counters read, and escalations land,
// between capsules. It returns the output packets, primary first, then FORK
// clones.
//
// Refused packets (revoked/quarantined/throttled) do not mutate the input
// capsule's flags: the FlagFailed marking is applied to the copied output
// capsule, which is what goes on the wire. The input may therefore be a
// pooled buffer reused by the caller.
//
// The outputs live in the runtime's scratch: they are valid until the next
// ExecuteProgram call on this Runtime; callers that retain one must copy it.
func (r *Runtime) ExecuteProgram(a *packet.Active) []*Output {
	r.executeOne(a)
	r.deliverEvents()
	return r.res.outputs
}

// executeOne is one capsule against the current state. Programs whose FID
// was never admitted pass through unexecuted, exactly as a table miss would
// behave on the real switch. Programs whose FID was revoked — or is
// quarantined during a reallocation (FlagMemSync excepted) — hard-drop: a
// tenant stripped of its grant must not retain pipeline access, and a
// deactivated tenant's packets must not leak around the snapshot.
func (r *Runtime) executeOne(a *packet.Active) {
	res := r.res
	res.outputs = res.outputs[:0]
	lat := r.passLat
	if a.Program == nil {
		res.passThrough(a, lat)
		return
	}
	fid := a.Header.FID
	spec := !r.specOff && !r.dev.TraceEnabled()
	var pl *compiledPlan
	if spec {
		// The direct-mapped memo remembers the plan last resolved for the
		// FID's slot; a hit (same program pointer and FID) skips the plan
		// map's hash entirely.
		tab := r.currentPlans()
		m := &res.memo[int(fid)&(planMemoSize-1)]
		pl = m.pl
		if m.prog != a.Program || m.fid != fid {
			pl = tab.plans[planKey{prog: a.Program, fid: fid}]
			if pl != nil {
				*m = planMemoEntry{prog: a.Program, fid: fid, pl: pl}
			}
		}
	}

	// The admission gate. A cached plan (compiled or a cached refusal to
	// compile) exists only for a FID that passed the identity checks since
	// the last commit, so a hit skips the revoked/admitted lookups and reads
	// the quarantine mark folded into the plan; only the packet-dependent
	// checks (FlagMemSync, recirculation budget) remain.
	quarantined := false
	if pl != nil {
		quarantined = pl.quarantined
	} else {
		row := r.rowOf(fid)
		if row.revoked {
			r.RevokedDrops++
			r.flightRefusal(fid, telemetry.VerdictRevoked)
			res.hardDrop(a, lat)
			return
		}
		if !row.admitted {
			r.Passthrough++
			if fr := r.fr; fr != nil && fr.ShouldSample() {
				fr.Record(telemetry.FlightEntry{FID: fid, Verdict: telemetry.VerdictPassthrough})
			}
			res.passThrough(a, lat)
			return
		}
		quarantined = row.quarantined
	}
	if quarantined && a.Header.Flags&packet.FlagMemSync == 0 {
		r.QuarantineDrops++
		r.flightRefusal(fid, telemetry.VerdictQuarantined)
		res.hardDrop(a, lat)
		return
	}
	if !r.RecircAllowed(fid, a.Program.Len()) {
		// The recirculation fairness controller polices bandwidth inflation
		// (Section 7.2): over-budget programs are dropped.
		r.events = append(r.events, GuardEvent{Kind: GuardEventRecircThrottled, FID: fid})
		r.flightRefusal(fid, telemetry.VerdictThrottled)
		res.hardDrop(a, lat)
		return
	}

	if spec && pl == nil {
		// First sighting of this program version since the last commit,
		// past the gate: compile (cached for every subsequent packet; a FORK
		// program caches its refusal).
		pl = r.compilePlan(planKey{prog: a.Program, fid: fid})
	}
	if pl != nil && pl.rp != nil {
		r.execSpecialized(a, pl, fid)
		return
	}
	r.ProgramsRun++

	phv := res.fillPHV(a, fid, true)
	phv.Instrs = append(phv.Instrs[:0], a.Program.Instrs...)
	r.PrivSuppressed += maskPrivileged(r.rowOf(fid), phv.Instrs)

	res.devOuts = r.dev.ExecInto(phv, res.devOuts[:0])
	for i, p := range res.devOuts {
		r.noteFault(fid, p)
		s := res.slot(i)
		// Shrink executed instruction headers unless the program opted out
		// (Section 3.1's packet-shrinking optimization).
		s.prog.Instrs = s.prog.Instrs[:0]
		noShrink := a.Header.Flags&packet.FlagNoShrink != 0
		for _, instr := range p.Instrs {
			if instr.Executed && !noShrink {
				continue
			}
			s.prog.Instrs = append(s.prog.Instrs, instr)
		}
		s.finish(a, p)
		res.addOutput(s)
	}
	r.flightExecuted(fid, res.devOuts[0]) // the primary PHV describes the traversal
}

// fillPHV resets the pooled PHV and loads the capsule's parsed fields; the
// payload's 5-tuple only when the program can read it.
func (res *scratch) fillPHV(a *packet.Active, fid uint16, tuple bool) *rmt.PHV {
	phv := res.phv
	phv.Reset()
	phv.FID = fid
	phv.Data = a.Args
	if a.Header.Flags&packet.FlagPreload != 0 {
		phv.MAR = a.Args[2]
		phv.MBR = a.Args[0]
	}
	if tuple {
		if tup, ok := packet.ParseFiveTuple(a.Payload); ok {
			phv.TupleWords = tup.WordsArray()
		}
	}
	return phv
}

// noteFault counts a protection fault and buffers its guard event.
func (r *Runtime) noteFault(fid uint16, p *rmt.PHV) {
	if !p.Faulted {
		return
	}
	r.Faults++
	r.events = append(r.events, GuardEvent{
		Kind: GuardEventMemFault, FID: fid,
		Stage: p.FaultStage, Addr: p.FaultAddr,
		Owner: p.FaultOwner, Owned: p.FaultOwned,
	})
}

// flightExecuted samples an executed capsule into the flight recorder;
// faults and drops force-record.
func (r *Runtime) flightExecuted(fid uint16, p *rmt.PHV) {
	fr := r.fr
	if fr == nil {
		return
	}
	forced := p.Faulted || p.Dropped
	if fr.ShouldSample() || forced {
		v := telemetry.VerdictExecuted
		if p.Dropped {
			v = telemetry.VerdictDropped
		}
		fr.Record(telemetry.FlightEntry{
			FID: fid, Epoch: r.rowOf(fid).epoch, Verdict: v,
			Stages: uint16(p.StagesRun), Passes: uint8(p.Passes),
			Faulted: p.Faulted, Addr: p.MAR, FaultAddr: p.FaultAddr,
		})
	}
}

// passThrough fills slot 0 with the unexecuted capsule itself.
func (res *scratch) passThrough(a *packet.Active, lat time.Duration) {
	s := res.slot(0)
	s.out = Output{Active: a, Latency: lat}
	res.addOutput(s)
}

// hardDrop fills slot 0 with the dropped-with-FlagFailed output for packets
// refused before execution. The input capsule is shallow-copied into the
// slot and the failure flag set on the copy, so pooled inputs are never
// mutated; the copy shares the input's Program and Payload, which is fine
// for an output that is only read until the next ExecuteProgram call.
func (res *scratch) hardDrop(a *packet.Active, lat time.Duration) {
	s := res.slot(0)
	s.act = *a
	s.act.Header.Flags |= packet.FlagFailed
	s.out = Output{Active: &s.act, Dropped: true, Latency: lat}
	res.addOutput(s)
}

// maskPrivileged applies privilege gating to an instruction image before
// execution: the forwarding-affecting opcodes are rewritten to NOPs for
// unprivileged FIDs, exactly as a match-table privilege qualifier would
// suppress the actions. FIDs without an explicit assignment are fully
// privileged (the paper's deployments assume authenticated edges; privilege
// levels are the hardening extension). row is the FID's admission row. It
// returns the number suppressed.
func maskPrivileged(row fidRow, instrs []isa.Instruction) (suppressed uint64) {
	if !row.privSet || row.privilege&PrivForwarding != 0 {
		return 0
	}
	for i := range instrs {
		switch instrs[i].Op {
		case isa.OpSetDst, isa.OpFork, isa.OpDrop:
			instrs[i].Op = isa.OpNop
			suppressed++
		}
	}
	return suppressed
}

// finish rebuilds the slot's output capsule from a post-execution PHV around
// the instruction body the caller has already placed in s.prog.Instrs.
func (s *outSlot) finish(in *packet.Active, p *rmt.PHV) {
	hdr := in.Header
	hdr.Flags |= packet.FlagFromSwch
	if p.Complete {
		hdr.Flags |= packet.FlagDone
	}
	if p.ToSender {
		hdr.Flags |= packet.FlagRTS
	}
	if p.Dropped {
		hdr.Flags |= packet.FlagFailed
	}
	hdr.SetType(packet.TypeProgram)

	s.prog.Name = in.Program.Name
	s.act = packet.Active{
		Header:  hdr,
		Args:    p.Data,
		Program: &s.prog,
		Payload: in.Payload,
	}
	s.out = Output{
		Active:   &s.act,
		ToSender: p.ToSender,
		DstSet:   p.DstSet,
		Dst:      p.Dst,
		Dropped:  p.Dropped,
		IsClone:  p.IsClone,
		Executed: true,
		Latency:  p.Latency,
		Passes:   p.Passes,
	}
}
