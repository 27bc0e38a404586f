package runtime

import (
	"testing"

	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// execFast runs one capsule through the fast path and flushes the sink, so
// counter state is comparable with the compat path after every packet.
func execFast(r *Runtime, a *packet.Active, res *ExecResult, sink *ExecSink) []*Output {
	r.ExecuteCapsule(a, res, sink)
	sink.Path.FlushInto(r)
	sink.Dev.FlushInto(r.Device())
	r.DeliverEvents(sink)
	return res.Outputs
}

// compareOutputs asserts the observable wire content of two output sets is
// identical: flags, args, surviving instructions, and routing verdicts.
func compareOutputs(t *testing.T, step string, want, got []*Output) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs vs %d", step, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Dropped != g.Dropped || w.ToSender != g.ToSender || w.DstSet != g.DstSet ||
			w.Dst != g.Dst || w.IsClone != g.IsClone || w.Executed != g.Executed ||
			w.Latency != g.Latency || w.Passes != g.Passes {
			t.Fatalf("%s output %d: envelope mismatch\nwant %+v\ngot  %+v", step, i, w, g)
		}
		wa, ga := w.Active, g.Active
		if wa.Header.Flags != ga.Header.Flags || wa.Header.FID != ga.Header.FID {
			t.Fatalf("%s output %d: header mismatch: %+v vs %+v", step, i, wa.Header, ga.Header)
		}
		if wa.Args != ga.Args {
			t.Fatalf("%s output %d: args %v vs %v", step, i, wa.Args, ga.Args)
		}
		wp, gp := wa.Program, ga.Program
		if (wp == nil) != (gp == nil) {
			t.Fatalf("%s output %d: program nil mismatch", step, i)
		}
		if wp != nil {
			if len(wp.Instrs) != len(gp.Instrs) {
				t.Fatalf("%s output %d: %d instrs vs %d", step, i, len(wp.Instrs), len(gp.Instrs))
			}
			for j := range wp.Instrs {
				if wp.Instrs[j] != gp.Instrs[j] {
					t.Fatalf("%s output %d instr %d: %v vs %v", step, i, j, wp.Instrs[j], gp.Instrs[j])
				}
			}
		}
	}
}

// TestExecuteCapsuleMatchesExecuteProgram drives the two entry points —
// ExecuteProgram with its per-capsule drain, forced onto the interpreter, and
// ExecuteCapsule on caller-owned scratch with compiled plans — through the
// same packet sequence on two identical runtimes and requires identical wire
// outputs, runtime counters, and register state: hit/miss queries, a
// protection fault, unadmitted passthrough, quarantine drop, and revoked
// drop.
func TestExecuteCapsuleMatchesExecuteProgram(t *testing.T) {
	ra := testRuntime(t)
	rb := testRuntime(t)
	ra.SetSpecialization(false)
	installCacheGrant(t, ra, 1, 0, 1024)
	installCacheGrant(t, rb, 1, 0, 1024)

	res := NewExecResult()
	sink := rb.NewExecSink()
	capsule := func(fid uint16, flags uint16, args [4]uint32) (*packet.Active, *packet.Active) {
		a := progPacket(fid, cacheQuery, args)
		b := progPacket(fid, cacheQuery.Clone(), args)
		a.Header.Flags |= flags
		b.Header.Flags |= flags
		return a, b
	}

	step := func(name string, fid uint16, flags uint16, args [4]uint32) {
		t.Helper()
		a, b := capsule(fid, flags, args)
		compareOutputs(t, name, ra.ExecuteProgram(a), execFast(rb, b, res, sink))
	}

	step("miss", 1, packet.FlagPreload, [4]uint32{7, 9, 100, 0})
	step("repeat", 1, packet.FlagPreload, [4]uint32{7, 9, 100, 0})
	step("fault", 1, packet.FlagPreload, [4]uint32{1, 2, 4000, 0}) // outside [0,1024)
	step("unadmitted", 9, 0, [4]uint32{})

	ra.Deactivate(1)
	rb.Deactivate(1)
	step("quarantined", 1, packet.FlagPreload, [4]uint32{1, 2, 100, 0})
	ra.Reactivate(1)
	rb.Reactivate(1)
	step("reactivated", 1, packet.FlagPreload, [4]uint32{7, 9, 100, 0})

	ra.RemoveGrant(1)
	rb.RemoveGrant(1)
	step("revoked", 1, packet.FlagPreload, [4]uint32{1, 2, 100, 0})

	// Counter and device state must agree exactly.
	if ra.ProgramsRun != rb.ProgramsRun || ra.Passthrough != rb.Passthrough ||
		ra.Faults != rb.Faults || ra.QuarantineDrops != rb.QuarantineDrops ||
		ra.RevokedDrops != rb.RevokedDrops {
		t.Fatalf("runtime counters diverged:\ncompat %d/%d/%d/%d/%d\nfast   %d/%d/%d/%d/%d",
			ra.ProgramsRun, ra.Passthrough, ra.Faults, ra.QuarantineDrops, ra.RevokedDrops,
			rb.ProgramsRun, rb.Passthrough, rb.Faults, rb.QuarantineDrops, rb.RevokedDrops)
	}
	da, db := ra.Device(), rb.Device()
	if da.PacketsIn != db.PacketsIn || da.PacketsDropped != db.PacketsDropped || da.Recirculations != db.Recirculations {
		t.Fatalf("device counters diverged: %d/%d/%d vs %d/%d/%d",
			da.PacketsIn, da.PacketsDropped, da.Recirculations,
			db.PacketsIn, db.PacketsDropped, db.Recirculations)
	}
	for s := 0; s < da.NumStages(); s++ {
		sa, sb := da.Stage(s), db.Stage(s)
		if sa.Executed != sb.Executed {
			t.Fatalf("stage %d executed %d vs %d", s, sa.Executed, sb.Executed)
		}
		if sa.Registers.Reads != sb.Registers.Reads || sa.Registers.Writes != sb.Registers.Writes ||
			sa.Registers.Faults != sb.Registers.Faults {
			t.Fatalf("stage %d register counters diverged", s)
		}
	}
}

// TestExecuteCapsuleZeroAlloc is the allocation gate for the packet hot
// path: once scratch buffers are warm, ExecuteCapsule must not allocate —
// on the clean path and on the fault path (buffered events reuse their
// capacity after delivery). The gate holds with telemetry both disabled and
// enabled: sharded counter adds, local-histogram observes, and flight-ring
// records are all allocation-free by construction.
func TestExecuteCapsuleZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		telemetry bool
	}{
		{name: "bare", telemetry: false},
		{name: "telemetry", telemetry: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRuntime(t)
			if tc.telemetry {
				r.AttachTelemetry(telemetry.NewRegistry())
			}
			installCacheGrant(t, r, 1, 0, 1024)
			res := NewExecResult()
			sink := r.NewExecSink()

			clean := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
			clean.Header.Flags |= packet.FlagPreload
			faulty := progPacket(1, cacheQuery, [4]uint32{7, 9, 4000, 0})
			faulty.Header.Flags |= packet.FlagPreload

			for i := 0; i < 64; i++ { // warm scratch buffers and event capacity
				r.ExecuteCapsule(clean, res, sink)
				r.ExecuteCapsule(faulty, res, sink)
				r.DeliverEvents(sink)
			}
			if avg := testing.AllocsPerRun(200, func() {
				r.ExecuteCapsule(clean, res, sink)
			}); avg != 0 {
				t.Fatalf("clean path allocates %.2f/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(200, func() {
				r.ExecuteCapsule(faulty, res, sink)
				r.DeliverEvents(sink)
			}); avg != 0 {
				t.Fatalf("fault path allocates %.2f/op, want 0", avg)
			}
			if tc.telemetry && sink.FR != nil && sink.FR.Recorded() == 0 {
				t.Fatal("telemetry enabled but the lane flight recorder saw no samples")
			}
		})
	}
}

// hookLog records guard notifications in arrival order.
type hookLog struct{ events []GuardEventKind }

func (h *hookLog) MemFault(uint16, int, uint32, uint16, bool) {
	h.events = append(h.events, GuardEventMemFault)
}
func (h *hookLog) RecircThrottled(uint16) { h.events = append(h.events, GuardEventRecircThrottled) }
func (h *hookLog) RevokedDrop(uint16)     { h.events = append(h.events, GuardEventRevokedDrop) }

// TestExecuteProgramDrainsPerCapsule pins what callers of the single-threaded
// entry point rely on: when ExecuteProgram returns, the capsule's counters
// are in the exported runtime and device fields, its guard events have been
// delivered, and its outputs stay readable until the next call — all without
// allocating, with telemetry off and on (where the lane-0 flight recorder
// must see the capsules).
func TestExecuteProgramDrainsPerCapsule(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		r := testRuntime(t)
		var reg *telemetry.Registry
		if withTel {
			reg = telemetry.NewRegistry()
			r.AttachTelemetry(reg)
		}
		installCacheGrant(t, r, 1, 0, 1024)
		hook := &hookLog{}
		r.SetGuardHook(hook)
		clean := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
		clean.Header.Flags |= packet.FlagPreload
		faulty := progPacket(1, cacheQuery, [4]uint32{7, 9, 4000, 0})
		faulty.Header.Flags |= packet.FlagPreload

		outs := r.ExecuteProgram(clean)
		if len(outs) != 1 || !outs[0].Executed || outs[0].Dropped {
			t.Fatalf("clean capsule: %+v", outs)
		}
		if r.ProgramsRun != 1 || r.SpecializedRuns != 1 || r.Device().PacketsIn != 1 || r.Device().Stage(1).Registers.Reads != 1 {
			t.Fatalf("counters not drained: programs %d specialized %d device packets %d stage-1 reads %d",
				r.ProgramsRun, r.SpecializedRuns, r.Device().PacketsIn, r.Device().Stage(1).Registers.Reads)
		}
		outs = r.ExecuteProgram(faulty)
		if len(outs) != 1 || !outs[0].Dropped || outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
			t.Fatalf("faulting capsule: %+v", outs)
		}
		if r.Faults != 1 || len(hook.events) != 1 || hook.events[0] != GuardEventMemFault {
			t.Fatalf("fault not delivered before return: Faults %d, hook saw %v", r.Faults, hook.events)
		}
		if faulty.Header.Flags&packet.FlagFailed != 0 {
			t.Fatal("refusal marked the caller's capsule instead of the output copy")
		}

		hook.events = make([]GuardEventKind, 0, 1024)
		if avg := testing.AllocsPerRun(200, func() {
			r.ExecuteProgram(clean)
			r.ExecuteProgram(faulty)
		}); avg != 0 {
			t.Fatalf("telemetry=%v: ExecuteProgram allocates %.2f per clean+faulting pair, want 0", withTel, avg)
		}
		if withTel {
			if fl := reg.Snapshot().Flights; r.sink.FR.Recorded() == 0 || len(fl) == 0 || fl[0].Lane != 0 {
				t.Fatalf("lane-0 flight recorder: %d recorded, snapshot %+v", r.sink.FR.Recorded(), fl)
			}
		}
	}
}
