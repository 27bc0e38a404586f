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
// compile each admitted program version once — against the exact published
// snapshot pair (ctrlView, rmt.PipeView) — into a straight-line rmt.Plan,
// then executes packets through the plan instead of the interpreter.
//
// Validity is pointer identity, never comparison: a plan table remembers the
// snapshot pair it was built against, publish() installs a fresh empty table
// after every snapshot swap, and the hot path uses a table only when its
// snapshot pointers equal the ones just loaded. A grant install, epoch bump,
// quarantine flip, privilege change, or revocation all funnel through
// publish(), so every one of them unreaches the previous table wholesale; a
// stale plan cannot execute because nothing can reach it.
//
// The interpreter remains the always-correct fallback: unknown or unadmitted
// FIDs, programs the compiler refuses (FORK), trace-hook sessions, a full
// plan table, and the window between a publish and the first recompile all
// run through the unchanged interpreter path.

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
	// quarantined snapshots the FID's quarantine mark under the compile
	// view: plans exist only for admitted, unrevoked FIDs (compilation runs
	// after the admission checks), so this is the only per-FID admission
	// flag the specialized entry still has to consult.
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
// is actively serving; a collision or a table swap just falls back
// to the map lookup.
const planMemoSize = 16

// planMemoEntry caches one resolved plan, validated by table pointer (which
// pins the snapshot pair) and canonical program pointer.
type planMemoEntry struct {
	tab  *planTable
	prog *isa.Program
	fid  uint16
	pl   *compiledPlan
}

// planTable maps program versions to compiled plans under one snapshot pair.
// Tables are copy-on-write: lookups walk the map lock-free while inserts
// (rare — once per program version per publish) build a new table under
// planMu and republish the pointer.
type planTable struct {
	cv    *ctrlView
	pv    *rmt.PipeView
	plans map[planKey]*compiledPlan
}

// maxPlans bounds a plan table. Overflowing compiles still execute their
// packet through a one-shot plan; they are just not cached.
const maxPlans = 4096

// resetPlans installs a fresh empty plan table (a nil map until the first
// compile) for the current snapshot pair. Called from publish().
func (r *Runtime) resetPlans(cv *ctrlView) {
	r.planMu.Lock()
	r.planTab.Store(&planTable{cv: cv, pv: r.dev.View()})
	r.planMu.Unlock()
}

// SetSpecialization enables or disables compiled-plan execution (enabled by
// default). Disabling it forces every packet through the interpreter — the
// honest baseline for benchmarks and differential tests.
func (r *Runtime) SetSpecialization(on bool) { r.specOff.Store(!on) }

// PlanCompiles returns the number of plan compilations performed.
func (r *Runtime) PlanCompiles() uint64 { return r.planCompiles.Load() }

// compilePlan compiles key's program under tab's snapshot pair and caches
// the result in a republished copy-on-write table. The caller has already
// passed the admission checks for key.fid under tab.cv. If a control commit
// republished the snapshots since the caller loaded tab, the plan is built
// against the caller's (still consistent) pair but not cached — the
// superseded table must not be resurrected over the fresh one.
func (r *Runtime) compilePlan(tab *planTable, key planKey) *compiledPlan {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	cur := r.planTab.Load()
	if cur != tab {
		if pl, ok := cur.plans[key]; ok && cur.cv == tab.cv && cur.pv == tab.pv {
			return pl
		}
		if cur.cv != tab.cv || cur.pv != tab.pv {
			return r.buildPlan(tab.cv, tab.pv, key)
		}
		tab = cur
	}
	if pl, ok := tab.plans[key]; ok {
		return pl
	}
	pl := r.buildPlan(tab.cv, tab.pv, key)
	if len(tab.plans) < maxPlans {
		next := &planTable{cv: tab.cv, pv: tab.pv, plans: make(map[planKey]*compiledPlan, len(tab.plans)+1)}
		for k, v := range tab.plans {
			next.plans[k] = v
		}
		next.plans[key] = pl
		r.planTab.Store(next)
	}
	return pl
}

// buildPlan folds privilege and compiles the device plan for one program
// version under an explicit snapshot pair.
func (r *Runtime) buildPlan(cv *ctrlView, pv *rmt.PipeView, key planKey) *compiledPlan {
	cp := &compiledPlan{
		instrs:      append([]isa.Instruction(nil), key.prog.Instrs...),
		quarantined: cv.row(key.fid).quarantined,
	}
	cp.suppressed = maskPrivileged(cv, key.fid, cp.instrs)
	for i := range cp.instrs {
		cp.preMarked = cp.preMarked || cp.instrs[i].Executed
		cp.readsTuple = cp.readsTuple || cp.instrs[i].Op == isa.OpHashdata5Tuple
	}
	cp.rp = r.dev.CompilePlan(key.fid, cp.instrs, pv)
	r.planCompiles.Add(1)
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
func (r *Runtime) execSpecialized(a *packet.Active, pl *compiledPlan, cv *ctrlView, fid uint16) {
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
	r.flightExecuted(cv, fid, phv)
}
