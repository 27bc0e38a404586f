package runtime

import (
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// This file is the specialization layer of the packet hot path. The decoded-
// program cache already canonicalizes programs per (FID, epoch, len, CRC32):
// every capsule carrying the same program version under the same grant epoch
// resolves to one shared *isa.Program. The runtime exploits that identity to
// compile each admitted program version once — against the admission rows
// and device tables as they stand — into a straight-line rmt.Plan, then
// executes packets through the plan instead of the interpreter.
//
// Validity is two generation counters: the plan table remembers the runtime
// generation (bumped by every commit) and the device generation (bumped by
// every TCAM or translation edit) its plans were compiled under, and the
// packet path empties it the first time either has moved. A grant install, epoch bump, quarantine flip, privilege change,
// revocation, or a table edited directly all move one of them, so a stale
// plan never executes.
//
// The interpreter remains the always-correct fallback: unknown or unadmitted
// FIDs, programs the compiler refuses (FORK), trace-hook sessions, and a full
// plan table all run through the unchanged interpreter path.

// planKey identifies one compiled plan: the canonical decoded-program
// pointer (which already encodes FID, grant epoch, length, and CRC32 — see
// packet.ProgCache) plus the executing FID, so a capsule replaying another
// tenant's cached program body still gets its own bounds folded in.
type planKey struct {
	prog *isa.Program
	fid  uint16
}

// compiledPlan is the runtime-side wrapper of one compiled program: the
// privilege-rewritten instruction image the output encoder slices from, the
// device plan (nil when the program is not specializable — cached so the hot
// path stops retrying), and the admission facts folded at compile time.
type compiledPlan struct {
	rp     *rmt.Plan
	instrs []isa.Instruction
	// suppressed is the number of privileged instructions rewritten to NOP
	// at compile time; the interpreter counts suppressions per packet, so
	// the specialized path adds the same amount for every packet executed.
	suppressed uint64
	// quarantined is the FID's quarantine mark at compile time: plans exist
	// only for admitted, unrevoked FIDs (compilation runs after the
	// admission checks), so this is the only per-FID admission flag the
	// specialized entry still has to consult.
	quarantined bool
	// readsTuple notes a HASHDATA_5TUPLE in the image: only then does a
	// packet's payload need parsing for its transport 5-tuple.
	readsTuple bool
	// preMarked notes that the wire image arrived with Executed bits already
	// set on some headers, forcing the output encoder onto its filtering
	// slow path to reproduce the interpreter's shrink exactly.
	preMarked bool
}

// planMemoSize is the direct-mapped plan memo size (a power of two). The
// memo short-circuits the plan-table map hash for the FIDs the packet path
// is actively serving; a collision just falls back to the map lookup.
const planMemoSize = 16

// planMemoEntry caches one resolved plan of the current table, keyed by
// canonical program pointer and FID. Emptying the table zeroes the memo.
type planMemoEntry struct {
	prog *isa.Program
	fid  uint16
	pl   *compiledPlan
}

// planTable maps program versions to compiled plans under one pair of
// generations.
type planTable struct {
	gen, devGen uint64 // the runtime and device generations the plans were compiled under
	plans       map[planKey]*compiledPlan
}

// maxPlans bounds a plan table. Overflowing compiles still execute their
// packet through a one-shot plan; they are just not cached.
const maxPlans = 4096

// currentPlans returns the plan table, emptied first (with the memo) if a
// commit or a table edit has happened since its plans were compiled.
func (r *Runtime) currentPlans() *planTable {
	t := &r.plans
	if t.gen != r.gen || t.devGen != r.dev.Gen() {
		clear(t.plans)
		t.gen, t.devGen = r.gen, r.dev.Gen()
		r.res.memo = [planMemoSize]planMemoEntry{}
	}
	return t
}

// SetSpecialization enables or disables compiled-plan execution (enabled by
// default). Disabling it forces every packet through the interpreter — the
// honest baseline for benchmarks and differential tests.
func (r *Runtime) SetSpecialization(on bool) { r.specOff = !on }

// compilePlan folds privilege into key's program, compiles the device plan
// under the current state and caches it in the plan table (the caller has
// passed the admission checks for key.fid).
func (r *Runtime) compilePlan(key planKey) *compiledPlan {
	row := r.rowOf(key.fid)
	cp := &compiledPlan{
		instrs:      append([]isa.Instruction(nil), key.prog.Instrs...),
		quarantined: row.quarantined,
	}
	cp.suppressed = maskPrivileged(row, cp.instrs)
	for i := range cp.instrs {
		cp.preMarked = cp.preMarked || cp.instrs[i].Executed
		cp.readsTuple = cp.readsTuple || cp.instrs[i].Op == isa.OpHashdata5Tuple
	}
	cp.rp = r.dev.CompilePlan(key.fid, cp.instrs)
	r.PlanCompiles++
	if t := &r.plans; len(t.plans) < maxPlans {
		if t.plans == nil {
			t.plans = make(map[planKey]*compiledPlan)
		}
		t.plans[key] = cp
	}
	return cp
}

// execSpecialized runs one admitted capsule through its compiled plan. The
// caller has performed the admission checks; this mirrors the interpreter
// tail of executeOne with the plan executor in place of ExecInto. The
// instruction image never enters the PHV: the plan carries it, and the
// output body is rebuilt from the image plus the exit index — the
// interpreter marks exactly the first exit headers Executed, so the shrunk
// body is the image's tail, one append of a slice instead of a
// per-instruction filter loop.
func (r *Runtime) execSpecialized(a *packet.Active, pl *compiledPlan, fid uint16) {
	res := r.res
	phv := res.fillPHV(a, fid, pl.readsTuple)
	exit := r.dev.ExecPlan(pl.rp, phv)
	r.ProgramsRun++
	r.SpecializedRuns++
	r.PrivSuppressed += pl.suppressed
	r.noteFault(fid, phv)

	s := res.slot(0)
	instrs := pl.instrs
	switch {
	case a.Header.Flags&packet.FlagNoShrink != 0:
		// Keep every header, the traversed prefix marked Executed; marks
		// pre-set on the wire image survive the copy, as they survive the
		// interpreter's per-slot OR.
		s.prog.Instrs = append(s.prog.Instrs[:0], instrs...)
		for i := 0; i < exit; i++ {
			s.prog.Instrs[i].Executed = true
		}
	case !pl.preMarked:
		s.prog.Instrs = append(s.prog.Instrs[:0], instrs[exit:]...)
	default:
		// Rare: the wire image arrived with Executed bits already set; the
		// interpreter's shrink drops those headers too.
		s.prog.Instrs = s.prog.Instrs[:0]
		for i, instr := range instrs {
			if i < exit || instr.Executed {
				continue
			}
			s.prog.Instrs = append(s.prog.Instrs, instr)
		}
	}
	s.finish(a, phv)
	res.addOutput(s)
	r.flightExecuted(fid, phv)
}
