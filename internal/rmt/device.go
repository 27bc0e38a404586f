package rmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"
	"time"

	"activermt/internal/isa"
	"activermt/internal/telemetry"
)

// Translate is a per-(FID, stage) address-translation entry backing the
// ADDR_MASK and ADDR_OFFSET instructions: the switch-resident half of
// runtime address translation (Section 3.2). Mask is applied as a bitwise
// AND; Offset as an addition.
type Translate struct {
	Mask   uint32
	Offset uint32
}

// Stage is one physical match-action stage: instruction decoding is modeled
// by the device-wide action table (the paper's runtime installs the full
// instruction set in every stage), while the stage owns its register array,
// its protection TCAM, and its translation entries.
//
// The TCAM and translation entries are control-plane builder state: the
// packet path never reads them directly, only the immutable StageView
// published from them (see view.go).
type Stage struct {
	Registers *RegisterArray
	Prot      *TCAM
	xlate     []TranslateEntry // sorted by FID
	xdirty    bool             // xlate changed since RebuildView last copied it (the TCAM tracks its own)

	// Executed counts instructions executed in this stage.
	Executed uint64
}

// TranslateEntry is one row of a stage's translation table.
type TranslateEntry struct {
	FID uint16
	Translate
}

// findTranslate returns fid's position in entries sorted by FID and whether
// an entry is there.
func findTranslate(xs []TranslateEntry, fid uint16) (int, bool) {
	lo, hi := 0, len(xs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); xs[m].FID < fid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(xs) && xs[lo].FID == fid
}

// translateOf returns fid's entry in a table sorted by FID.
func translateOf(xs []TranslateEntry, fid uint16) (Translate, bool) {
	if i, ok := findTranslate(xs, fid); ok {
		return xs[i].Translate, true
	}
	return Translate{}, false
}

// SetTranslate installs the translation entry for fid in this stage.
func (s *Stage) SetTranslate(fid uint16, t Translate) {
	if i, ok := findTranslate(s.xlate, fid); ok {
		s.xlate[i].Translate = t
	} else {
		s.xlate = slices.Insert(s.xlate, i, TranslateEntry{fid, t})
	}
	s.xdirty = true
}

// ClearTranslate removes fid's translation entry; it returns 1 if an entry
// was present (for table-update cost accounting).
func (s *Stage) ClearTranslate(fid uint16) int {
	i, ok := findTranslate(s.xlate, fid)
	if !ok {
		return 0
	}
	s.xlate = slices.Delete(s.xlate, i, i+1)
	s.xdirty = true
	return 1
}

// TranslateFor returns fid's translation entry in this stage.
func (s *Stage) TranslateFor(fid uint16) (Translate, bool) { return translateOf(s.xlate, fid) }

// TranslateEntries returns a copy of this stage's translation table, sorted
// by FID. The isolation auditor walks it to prove every translate window
// stays inside a region its owner actually holds.
func (s *Stage) TranslateEntries() []TranslateEntry { return slices.Clone(s.xlate) }

// Action implements one instruction. Actions are installed by the runtime
// package (the P4-program analogue); the device only sequences them.
type Action func(ctx *Ctx, in isa.Instruction)

// Ctx is the execution context passed to actions: the device, the physical
// stage the instruction runs in, the packet's PHV, and the published stage
// view (protection + translation). Actions must consult View — not the stage's
// TCAM or translation map — so that execution reads only immutable
// snapshots. Ctx values are scratch space owned by the PHV; they are reused
// across instructions and must not be retained by actions.
type Ctx struct {
	Dev      *Device
	Stage    *Stage
	StageIdx int // physical stage index
	PHV      *PHV
	View     *StageView
}

// TraceEvent describes one instruction slot as it executes (or is skipped
// by branch predication), for the activeasm tracer and tests.
type TraceEvent struct {
	Logical  int // logical stage (instruction index)
	Stage    int // physical stage
	In       isa.Instruction
	Skipped  bool // predicated off by a pending branch label
	MAR      uint32
	MBR      uint32
	MBR2     uint32
	Complete bool
	Dropped  bool
}

// Device is the simulated RMT switch pipeline.
type Device struct {
	cfg     Config
	stages  []*Stage
	actions [isa.NumOpcodes]Action
	trace   func(TraceEvent)

	// view is the published pipeline snapshot the packet path executes
	// against; viewGen numbers publications.
	view    atomic.Pointer[PipeView]
	viewGen atomic.Uint64

	// lat is the per-packet latency histogram, observed once telemetry is
	// attached (see telemetry.go); nil keeps the device telemetry-free.
	lat *telemetry.Histogram

	// Counters for the experiment harness, counted in place by the one
	// goroutine that executes packets.
	PacketsIn, PacketsDropped, Recirculations uint64
}

// New constructs a device per cfg, validating architectural parameters.
func New(cfg Config) (*Device, error) {
	if cfg.NumStages <= 0 || cfg.NumIngress <= 0 || cfg.NumIngress > cfg.NumStages {
		return nil, fmt.Errorf("rmt: bad pipeline shape %d/%d", cfg.NumIngress, cfg.NumStages)
	}
	if cfg.StageWords <= 0 || cfg.MaxPasses <= 0 {
		return nil, fmt.Errorf("rmt: bad config %+v", cfg)
	}
	d := &Device{cfg: cfg, stages: make([]*Stage, cfg.NumStages)}
	empty := &PipeView{stages: make([]*StageView, cfg.NumStages)}
	for i := range d.stages {
		d.stages[i] = &Stage{Registers: NewRegisterArray(cfg.StageWords), Prot: NewTCAM(cfg.TCAMEntries)}
		empty.stages[i] = &StageView{}
	}
	d.view.Store(empty) // RebuildView shares what did not change with its predecessor
	d.RebuildView()
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumStages returns the logical pipeline depth.
func (d *Device) NumStages() int { return d.cfg.NumStages }

// NumIngress returns the ingress pipeline depth.
func (d *Device) NumIngress() int { return d.cfg.NumIngress }

// Stage returns physical stage i.
func (d *Device) Stage(i int) *Stage { return d.stages[i] }

// PhysicalStage maps a logical stage (which may exceed NumStages under
// recirculation) to its physical stage index.
func (d *Device) PhysicalStage(logical int) int { return logical % d.cfg.NumStages }

// SetAction installs the action implementing op in every stage ("the full
// set of instructions is available in each stage", Section 3.1).
func (d *Device) SetAction(op isa.Opcode, fn Action) { d.actions[op] = fn }

// SetTrace installs a per-instruction trace hook (nil disables tracing).
func (d *Device) SetTrace(fn func(TraceEvent)) { d.trace = fn }

// Hash is the stage-local hash unit. A zero selector picks the stage-seeded
// function, so consecutive HASH instructions (as in the count-min sketch of
// Appendix B.1) compute independent functions; a nonzero selector picks a
// fixed function usable consistently from any stage (as the Cheetah cookie
// needs) — mirroring the Tofino's multiple selectable hash units.
func (d *Device) Hash(stageIdx int, selector uint8, words [NumHashWords]uint32) uint32 {
	if selector != 0 {
		return FixedHash(uint32(selector), words)
	}
	return StageHash(stageIdx, words)
}

// StageHash is the deterministic per-stage hash function; clients replicate
// it for client-side address computation (Section 3.2's client-side
// translation).
func StageHash(stageIdx int, words [NumHashWords]uint32) uint32 {
	return FixedHash(uint32(stageIdx)*0x9E3779B9+1, words)
}

// FixedHash is the stage-independent seeded hash.
func FixedHash(seed uint32, words [NumHashWords]uint32) uint32 {
	var buf [4 + 4*NumHashWords]byte
	binary.BigEndian.PutUint32(buf[0:], seed)
	for i, w := range words {
		binary.BigEndian.PutUint32(buf[4+4*i:], w)
	}
	return crc32.ChecksumIEEE(buf[:])
}

// Exec runs the PHV's program through the pipeline and returns all output
// packets: the primary PHV first, followed by any FORK clones. Dropped
// packets are still returned (with Dropped set) so callers can account for
// them. Latency, pass counts, and Executed flags are filled in on return.
//
// Latency is modeled at stage granularity — PassLatency/NumStages per stage
// slot traversed — which reproduces the linear growth of Figure 8b; an RTS
// executed at egress charges one extra full pass (the recirculation needed
// to change ports, Section 3.1).
func (d *Device) Exec(p *PHV) []*PHV { return d.ExecInto(p, make([]*PHV, 0, 1)) }

// ExecInto is the allocation-free execution entry point: it appends the
// primary PHV and any FORK clones to outs (reusing its backing array). The
// pipeline view is loaded once at entry, so the whole packet executes against
// one published snapshot.
func (d *Device) ExecInto(p *PHV, outs []*PHV) []*PHV {
	d.PacketsIn++
	return d.run(p, 0, 0, d.view.Load(), outs)
}

// run executes from logical instruction index startIdx with extraSlots
// stage slots already charged (clone recirculation). Clone outputs are
// appended recursively.
func (d *Device) run(p *PHV, startIdx, extraSlots int, view *PipeView, outs []*PHV) []*PHV {
	n := d.cfg.NumStages
	maxSlots := d.cfg.MaxPasses * n
	outs = append(outs, p)

	idx := startIdx
	for !p.Complete && !p.Dropped {
		if idx >= len(p.Instrs) {
			p.Complete = true
			break
		}
		if idx >= maxSlots {
			// Recirculation limit: the switch polices bandwidth
			// inflation by dropping runaway programs.
			p.Dropped = true
			break
		}
		s := idx % n
		in := p.Instrs[idx]
		p.Instrs[idx].Executed = true // header consumed at this stage
		skipped := false
		if p.DisabledUntil != 0 {
			// Skipping an untaken branch arm; resume at the label.
			if in.Label == p.DisabledUntil {
				p.DisabledUntil = 0
				outs = d.execute(s, p, in, idx, outs, view)
			} else {
				skipped = true
			}
		} else {
			outs = d.execute(s, p, in, idx, outs, view)
		}
		if d.trace != nil {
			d.trace(TraceEvent{Logical: idx, Stage: s, In: in, Skipped: skipped,
				MAR: p.MAR, MBR: p.MBR, MBR2: p.MBR2, Complete: p.Complete, Dropped: p.Dropped})
		}
		idx++
		if idx%n == 0 && idx < len(p.Instrs) && idx < maxSlots && !p.Complete && !p.Dropped {
			d.Recirculations++
		}
	}

	slots := idx
	if slots < 1 {
		slots = 1 // even an empty program traverses at least one stage
	}
	if p.rtsAtEgress && !p.Dropped {
		// Ports cannot change at egress: one extra pass to apply RTS.
		slots += n
		d.Recirculations++
	}
	slots += extraSlots
	p.StagesRun = slots
	p.Passes = (slots + n - 1) / n
	p.Latency = time.Duration(int64(slots) * d.cfg.PassLatency.Nanoseconds() / int64(n))
	if d.lat != nil {
		d.lat.Observe(uint64(p.Latency))
	}
	if p.Dropped {
		d.PacketsDropped++
	}
	return outs
}

// execute dispatches one instruction to its installed action and handles a
// resulting FORK. The action context is the PHV's scratch Ctx, refilled per
// instruction — no per-instruction allocation.
func (d *Device) execute(stageIdx int, p *PHV, in isa.Instruction, idx int, outs []*PHV, view *PipeView) []*PHV {
	fn := d.actions[in.Op]
	if fn == nil {
		// Uninstalled opcode: table miss, no action.
		return outs
	}
	ctx := &p.ctx
	ctx.Dev = d
	ctx.Stage = d.stages[stageIdx]
	ctx.Stage.Executed++
	ctx.StageIdx = stageIdx
	ctx.PHV = p
	ctx.View = view.StageView(stageIdx)
	fn(ctx, in)
	if p.forkRequested {
		p.forkRequested = false
		c := p.Clone()
		if p.forkDstValid {
			// Mirror session: the clone is steered to the session's
			// egress port (Tofino clone sessions are control-plane
			// state selected by the FORK operand).
			c.DstSet, c.Dst = true, p.forkDst
			p.forkDstValid = false
			c.forkDstValid = false
		}
		// The clone resumes at the next logical stage after a
		// recirculation (Section 3.1: instructions that clone packets
		// require recirculation), charged as one extra pass.
		d.Recirculations++
		outs = d.run(c, idx+1, d.cfg.NumStages, view, outs)
	}
	return outs
}
