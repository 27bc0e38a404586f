package rmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

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
// by the compiled plan (the paper's runtime installs the full instruction
// set in every stage, so any slot may hold any opcode), while the stage owns
// its register array, its protection TCAM, and its translation entries.
//
// The packet path reads the TCAM and translation entries the control plane
// edits: every edit bumps the device generation (Device.Gen), which is how a
// compiled plan learns it was folded from tables that have since changed.
type Stage struct {
	Registers *RegisterArray
	Prot      *TCAM
	xlate     []TranslateEntry // sorted by FID
	gen       *uint64          // the device generation

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
	*s.gen++
}

// ClearTranslate removes fid's translation entry; it returns 1 if an entry
// was present (for table-update cost accounting).
func (s *Stage) ClearTranslate(fid uint16) int {
	i, ok := findTranslate(s.xlate, fid)
	if !ok {
		return 0
	}
	s.xlate = slices.Delete(s.xlate, i, i+1)
	*s.gen++
	return 1
}

// TranslateFor returns fid's translation entry in this stage.
func (s *Stage) TranslateFor(fid uint16) (Translate, bool) { return translateOf(s.xlate, fid) }

// TranslateEntries returns a copy of this stage's translation table, sorted
// by FID. The isolation auditor walks it to prove every translate window
// stays inside a region its owner actually holds.
func (s *Stage) TranslateEntries() []TranslateEntry { return slices.Clone(s.xlate) }

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
	cfg    Config
	stages []*Stage
	trace  func(TraceEvent)
	outs   []*PHV // ExecPlan's outputs in preorder, each appended as it starts

	// gen counts table edits: every TCAM install or removal and every
	// translation write or delete in any stage bumps it.
	gen uint64

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
	for i := range d.stages {
		d.stages[i] = &Stage{
			Registers: NewRegisterArray(cfg.StageWords),
			Prot:      &TCAM{capacity: cfg.TCAMEntries, gen: &d.gen},
			gen:       &d.gen,
		}
	}
	return d, nil
}

// Gen returns the table generation: it changes whenever any stage's TCAM or
// translation entries change, however they were edited.
func (d *Device) Gen() uint64 { return d.gen }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumStages returns the logical pipeline depth.
func (d *Device) NumStages() int { return d.cfg.NumStages }

// Stage returns physical stage i.
func (d *Device) Stage(i int) *Stage { return d.stages[i] }

// PhysicalStage maps a logical stage (which may exceed NumStages under
// recirculation) to its physical stage index.
func (d *Device) PhysicalStage(logical int) int { return logical % d.cfg.NumStages }

// SetTrace installs a per-instruction trace hook (nil disables tracing).
func (d *Device) SetTrace(fn func(TraceEvent)) { d.trace = fn }

// StageHash is the stage-local hash unit a zero HASH selector picks:
// seeded by the stage, so consecutive HASH instructions (as in the
// count-min sketch of Appendix B.1) compute independent functions. Clients
// replicate it for client-side address computation (Section 3.2's
// client-side translation).
func StageHash(stageIdx int, words [NumHashWords]uint32) uint32 {
	return FixedHash(stageSeed(stageIdx), words)
}

// stageSeed is the seed of stage stageIdx's hash unit.
func stageSeed(stageIdx int) uint32 { return uint32(stageIdx)*0x9E3779B9 + 1 }

// FixedHash is the stage-independent seeded hash a nonzero HASH selector
// picks, usable consistently from any stage (as the Cheetah cookie needs) —
// mirroring the Tofino's multiple selectable hash units.
func FixedHash(seed uint32, words [NumHashWords]uint32) uint32 {
	var buf [4 + 4*NumHashWords]byte
	binary.BigEndian.PutUint32(buf[0:], seed)
	for i, w := range words {
		binary.BigEndian.PutUint32(buf[4+4*i:], w)
	}
	return crc32.ChecksumIEEE(buf[:])
}
