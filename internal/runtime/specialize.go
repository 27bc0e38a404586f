package runtime

import (
	"activermt/internal/isa"
	"activermt/internal/packet"
	"activermt/internal/rmt"
)

// This file is the compilation layer of the packet path. The decoded-program
// cache already canonicalizes programs by their bytes: every capsule
// carrying the same program resolves to one shared *isa.Program, whichever
// tenant sent it. The runtime exploits that identity to compile each
// (program, FID) pair once — against that FID's admission row, mirror
// sessions and device table entries as they stand — into a straight-line
// rmt.Plan, and executes every admitted capsule through its plan.
//
// Validity is two generation counters: the plan table remembers the runtime
// generation (bumped by every commit) and the device generation (bumped by
// every TCAM or translation edit) its plans were compiled under, and the
// packet path empties it the first time either has moved. A grant install,
// epoch bump, quarantine flip, mirror-session edit, revocation, or a table
// edited directly all move one of them, so a stale plan never executes.

// planKey identifies one compiled plan: the canonical decoded-program
// pointer (one per distinct program bytes — see packet.ProgCache) plus the
// executing FID, so tenants sending byte-identical programs each get their
// own grant folded in.
type planKey struct {
	prog *isa.Program
	fid  uint16
}

// compiledPlan is the runtime-side wrapper of one compiled program: the
// instruction image the output encoder slices from, the device plan, and the
// admission facts folded at compile time.
type compiledPlan struct {
	rp rmt.Plan
	// instrs is the decoded program's own image, never written: the
	// canonical program is immutable and outlives every plan keyed by it.
	instrs []isa.Instruction
	// quarantined is the FID's quarantine mark at compile time: plans exist
	// only for admitted, unrevoked FIDs (compilation runs after the
	// admission checks), so this is the only per-FID admission flag the
	// packet path still has to consult.
	quarantined bool
	// readsTuple notes a HASHDATA_5TUPLE in the image: only then does a
	// packet's payload need parsing for its transport 5-tuple.
	readsTuple bool
	// preMarked notes that the wire image arrived with Executed bits already
	// set on some headers, forcing the output encoder onto its filtering
	// slow path: the deparser shrinks those headers too.
	preMarked bool
}

// planTable maps program versions to compiled plans under one pair of
// generations.
type planTable struct {
	gen, devGen uint64 // the runtime and device generations the plans were compiled under
	plans       map[planKey]*compiledPlan
	free        []*compiledPlan // emptied out of plans: storage compilePlan reuses
}

// maxPlans bounds a plan table. A compile that finds it full empties it
// first, as a full program cache is flushed: plans are rebuilt in one
// compile each, and the emptied ones are the storage the next compiles reuse.
const maxPlans = 4096

// currentPlans returns the plan table, emptied first if a commit or a table
// edit has happened since its plans were compiled.
func (r *Runtime) currentPlans() *planTable {
	t := &r.plans
	if t.gen != r.gen || t.devGen != r.dev.Gen() {
		t.empty()
		t.gen, t.devGen = r.gen, r.dev.Gen()
	}
	return t
}

// empty moves every plan to the free list.
func (t *planTable) empty() {
	for _, cp := range t.plans {
		t.free = append(t.free, cp)
	}
	clear(t.plans)
}

// compilePlan compiles the device plan of key's program under the current
// state and caches it in the plan table (the caller has passed the admission
// checks for key.fid).
func (r *Runtime) compilePlan(key planKey) *compiledPlan {
	t := &r.plans
	if len(t.plans) >= maxPlans {
		t.empty()
	}
	var cp *compiledPlan
	if n := len(t.free); n > 0 {
		cp, t.free = t.free[n-1], t.free[:n-1]
	} else {
		cp = new(compiledPlan)
	}
	*cp = compiledPlan{rp: cp.rp, instrs: key.prog.Instrs, quarantined: r.rowOf(key.fid).quarantined}
	for i := range cp.instrs {
		cp.preMarked = cp.preMarked || cp.instrs[i].Executed
		cp.readsTuple = cp.readsTuple || cp.instrs[i].Op == isa.OpHashdata5Tuple
	}
	r.dev.CompilePlan(&cp.rp, key.fid, cp.instrs, func(session uint8) (uint32, bool) {
		return r.MirrorSession(key.fid, session)
	})
	r.PlanCompiles++
	if t.plans == nil {
		t.plans = make(map[planKey]*compiledPlan)
	}
	t.plans[key] = cp
	return cp
}

// execute runs one admitted capsule through its compiled plan; the caller
// has performed the admission checks. The instruction image never enters the
// PHV: the plan carries it, and each output's body is rebuilt from the image
// plus that output's exit index — the headers before it were traversed, so
// the shrunk body is the image's tail, one append of a slice instead of a
// per-instruction filter loop.
func (r *Runtime) execute(a *packet.Active, pl *compiledPlan, fid uint16) {
	res := r.res
	phv := res.fillPHV(a, fid, pl.readsTuple)
	res.devOuts = r.dev.ExecPlan(&pl.rp, phv, res.devOuts[:0])
	r.ProgramsRun++
	r.SpecializedRuns++
	noShrink := a.Header.Flags&packet.FlagNoShrink != 0
	for i, p := range res.devOuts {
		r.noteFault(fid, p)
		s := res.slot(i)
		s.prog.Instrs = pl.body(s.prog.Instrs[:0], p.Exit, noShrink)
		s.finish(a, p)
		res.addOutput(s)
	}
	r.flightExecuted(fid, phv) // the primary PHV describes the traversal
}

// body appends to dst the instruction headers an output leaves the switch
// with, exit of them having been traversed.
func (pl *compiledPlan) body(dst []isa.Instruction, exit int, noShrink bool) []isa.Instruction {
	switch {
	case noShrink:
		// Keep every header, the traversed prefix marked Executed; marks
		// pre-set on the wire image survive the copy.
		dst = append(dst, pl.instrs...)
		for i := 0; i < exit; i++ {
			dst[i].Executed = true
		}
	case !pl.preMarked:
		dst = append(dst, pl.instrs[exit:]...)
	default:
		// Rare: the wire image arrived with Executed bits already set; the
		// shrink drops those headers too.
		for i, instr := range pl.instrs {
			if i < exit || instr.Executed {
				continue
			}
			dst = append(dst, instr)
		}
	}
	return dst
}
