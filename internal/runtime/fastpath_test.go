package runtime

import (
	"testing"

	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/telemetry"
)

// compareOutputs asserts the observable wire content of two output sets is
// identical: flags, args, surviving instructions, and routing verdicts.
func compareOutputs(t testing.TB, step string, want, got []*Output) {
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

// TestExecuteProgramZeroAlloc is the allocation gate for the packet hot
// path: once scratch buffers are warm, ExecuteProgram must not allocate — on
// the clean path, on the fault path (buffered events reuse their capacity
// after delivery) and for a FORK capsule (the clones' PHVs and output slots
// are pooled). The gate holds with telemetry both disabled and enabled: the
// per-capsule counter publish, histogram observes, and flight-ring records
// are all allocation-free by construction.
func TestExecuteProgramZeroAlloc(t *testing.T) {
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
			r.SetMirrorSession(1, 1, 9)

			clean := progPacket(1, cacheQuery, [4]uint32{7, 9, 100, 0})
			clean.Header.Flags |= packet.FlagPreload
			faulty := progPacket(1, cacheQuery, [4]uint32{7, 9, 4000, 0})
			faulty.Header.Flags |= packet.FlagPreload
			fork := progPacket(1, isa.MustAssemble("fork", "MAR_LOAD 2\nFORK 1\nFORK\nNOP\nMEM_INCREMENT\nRTS\nRETURN"), [4]uint32{0, 0, 100, 0})

			for i := 0; i < 64; i++ { // warm scratch buffers and event capacity
				r.ExecuteProgram(clean)
				r.ExecuteProgram(faulty)
				r.ExecuteProgram(fork)
			}
			for _, c := range []struct {
				name string
				a    *packet.Active
			}{{"clean", clean}, {"fault", faulty}, {"fork", fork}} {
				if avg := testing.AllocsPerRun(200, func() { r.ExecuteProgram(c.a) }); avg != 0 {
					t.Fatalf("%s path allocates %.2f/op, want 0", c.name, avg)
				}
			}
			if outs := r.ExecuteProgram(fork); len(outs) != 4 || !outs[1].DstSet || outs[1].Dst != 9 {
				t.Fatalf("fork capsule: %d outputs, want 4 with the first clone mirrored to port 9", len(outs))
			}
			if r.SpecializedRuns != r.ProgramsRun {
				t.Fatalf("%d of %d capsules ran a compiled plan", r.SpecializedRuns, r.ProgramsRun)
			}
			if tc.telemetry && r.fr.Recorded() == 0 {
				t.Fatal("telemetry enabled but the flight recorder saw no samples")
			}
		})
	}
}

// hookLog records guard notifications in arrival order.
type hookLog struct{ events []GuardEventKind }

func (h *hookLog) MemFault(uint16) {
	h.events = append(h.events, GuardEventMemFault)
}
func (h *hookLog) RecircThrottled(uint16) { h.events = append(h.events, GuardEventRecircThrottled) }

// TestExecuteProgramDrainsPerCapsule pins what callers of the entry point
// rely on: when ExecuteProgram returns, the capsule's counters are in the
// exported runtime and device fields — and, with telemetry on, in the metrics
// a scrape reads — its guard events have been delivered, and its outputs stay
// readable until the next call; all without allocating, with telemetry off
// and on (where the flight recorder must see the capsules).
func TestExecuteProgramDrainsPerCapsule(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		r := testRuntime(t)
		var reg *telemetry.Registry
		published := func(step string) {} // telemetry ≡ fields, checked after each call
		if withTel {
			reg = telemetry.NewRegistry()
			r.AttachTelemetry(reg)
			published = func(step string) {
				t.Helper()
				snap, d := reg.Snapshot(), r.Device()
				for _, c := range []struct {
					name, labels string
					field        uint64
				}{
					{"activermt_runtime_programs_run_total", "", r.ProgramsRun},
					{"activermt_runtime_specialized_total", "", r.SpecializedRuns},
					{"activermt_runtime_faults_total", "", r.Faults},
					{"activermt_device_packets_total", "", d.PacketsIn},
					{"activermt_device_packets_dropped_total", "", d.PacketsDropped},
					{"activermt_stage_executed_total", `stage="1"`, d.Stage(1).Executed},
					{"activermt_stage_register_reads_total", `stage="1"`, d.Stage(1).Registers.Reads},
					{"activermt_stage_register_faults_total", `stage="1"`, d.Stage(1).Registers.Faults},
				} {
					if v, ok := snapGauge(snap, c.name, c.labels); !ok || uint64(v) != c.field {
						t.Fatalf("%s: scrape reads %s{%s} = %v, the field is %d", step, c.name, c.labels, v, c.field)
					}
				}
			}
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
		published("clean")
		outs = r.ExecuteProgram(faulty)
		if len(outs) != 1 || !outs[0].Dropped || outs[0].Active.Header.Flags&packet.FlagFailed == 0 {
			t.Fatalf("faulting capsule: %+v", outs)
		}
		if r.Faults != 1 || r.Device().Stage(1).Registers.Faults != 1 || len(hook.events) != 1 || hook.events[0] != GuardEventMemFault {
			t.Fatalf("fault not delivered before return: Faults %d, hook saw %v", r.Faults, hook.events)
		}
		published("faulting")
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
		published("steady state")
		if withTel {
			if fl := reg.Snapshot().Flights; r.fr.Recorded() == 0 || len(fl) == 0 {
				t.Fatalf("flight recorder: %d recorded, snapshot %+v", r.fr.Recorded(), fl)
			}
		}
	}
}
