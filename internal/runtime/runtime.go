// Package runtime implements the ActiveRMT switch runtime: the shared
// "P4 program" that turns a generic RMT device into an active-packet
// processor (Section 3 of the paper). It compiles each admitted program into
// a device plan that makes the full instruction set available in every stage,
// enforces per-FID memory protection through the stage TCAMs, applies
// runtime address translation (ADDR_MASK/ADDR_OFFSET), manages FID admission
// and quarantine state, and converts between active packets and PHVs.
package runtime

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/packet"
	"activermt/internal/rmt"
	"activermt/internal/telemetry"
)

// AccessGrant places one memory access of an admitted program: the logical
// stage the access executes in (which fixes the physical stage), the
// granted word region [Lo, Hi) in that stage's register array, and the
// logical stages whose ADDR_MASK/ADDR_OFFSET translate into that region.
type AccessGrant struct {
	Logical int
	Lo, Hi  uint32
	Xlate   []int
}

// Grant is the full data-plane footprint of one admitted application
// instance, as computed by the allocator for the selected mutant.
type Grant struct {
	FID      uint16
	Accesses []AccessGrant
}

// Set makes g the install form of an allocator placement of a program with
// constraints c, reusing g's storage. Synthesis pads with NOPs right before
// each access, so template slot p after access i-1 runs at logical stage
// Mutant[i-1] + p - Index[i-1] (both -1 before the first access).
func (g *Grant) Set(pl *alloc.Placement, c *alloc.Constraints) {
	g.FID, g.Accesses = pl.FID, slices.Grow(g.Accesses[:0], len(pl.Accesses))[:len(pl.Accesses)]
	prevLogical, prevIndex := -1, -1
	for i, ap := range pl.Accesses {
		a, ac := &g.Accesses[i], c.Accesses[i]
		*a = AccessGrant{Logical: ap.Logical, Lo: ap.Range.Lo, Hi: ap.Range.Hi, Xlate: a.Xlate[:0]}
		for m := ac.Translate; m != 0; m &= m - 1 {
			a.Xlate = append(a.Xlate, prevLogical+ac.Index-1-bits.TrailingZeros8(m)-prevIndex)
		}
		prevLogical, prevIndex = ap.Logical, ac.Index
	}
}

// Runtime is the ActiveRMT switch runtime: a configured RMT device plus the
// FID admission, protection, and translation state the shared P4 program
// maintains.
//
// One goroutine drives a Runtime — the simulation's — and runs its
// control-plane mutators and its packet path in turn. A commit edits the
// tables in place and is seen by the next capsule; nothing is copied for it.
type Runtime struct {
	dev *rmt.Device

	// rows is the admission table: edited in place by the mutators, read in
	// place by the packet path, the guard and telemetry.
	rows []fidRow
	// gen counts admission-state commits (see commit).
	gen uint64

	guard GuardHook

	// Section 7 extensions (see extensions.go).
	recircPolicy RecircPolicy
	recircNow    func() time.Duration
	recirc       map[uint16]*recircState
	mirror       map[uint32]uint32

	// passLat caches the device's per-pass latency so the hot path does not
	// copy the whole Config struct per packet. Immutable after New.
	passLat time.Duration

	// plans is the compiled-plan table (see specialize.go).
	plans planTable

	// wants is fillTables' per-stage scratch.
	wants []stageWant

	// res is ExecuteProgram's scratch state and events its guard-event
	// buffer (see fastpath.go): events raised by a capsule are delivered to
	// the hook after it has finished executing, before its outputs leave.
	res    *scratch
	events []GuardEvent

	// fr is the flight recorder (nil until AttachTelemetry; see
	// telemetry.go).
	fr *telemetry.FlightRecorder

	// Stats for the experiment harness and telemetry, counted in place.
	ProgramsRun, Passthrough, Faults uint64
	RecircThrottled                  uint64
	QuarantineDrops, RevokedDrops    uint64
	SpecializedRuns                  uint64 // capsules executed through a compiled plan: always ProgramsRun
	PlanCompiles                     uint64 // program-to-plan compilations performed
	TableOps                         uint64 // cumulative table update operations
}

// fidRow is everything the admission gate knows about one FID. Rows live in
// one slice sorted by fid, found by binary search, and are never deleted:
// the epoch must survive RemoveGrant so a re-admitted FID continues the
// sequence rather than reissuing epochs an attacker may have observed.
type fidRow struct {
	fid         uint16
	admitted    bool
	quarantined bool // execution suspended for a reallocation
	revoked     bool // grant removed: packets hard-drop instead of passing through
	// epoch is bumped on every grant install so capsules stamped against
	// an older grant are detectably stale (0: never granted).
	epoch uint8
}

// findRow returns fid's position in rows and whether a row is there.
func findRow(rows []fidRow, fid uint16) (int, bool) {
	lo, hi := 0, len(rows)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rows[m].fid < fid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rows) && rows[lo].fid == fid
}

// rowOf returns fid's row; a FID never seen has the zero row.
func (r *Runtime) rowOf(fid uint16) fidRow {
	if i, ok := findRow(r.rows, fid); ok {
		return r.rows[i]
	}
	return fidRow{}
}

// commit ends one control-plane edit of admission state: every mutator calls
// it once, after its full edit. The generation it bumps empties the plan
// table before the next capsule, because plans fold admission, mirror,
// protection and translation state (see specialize.go).
func (r *Runtime) commit() { r.gen++ }

// GuardHook receives data-plane isolation events as they happen. The runtime
// deliberately depends only on this narrow interface (internal/guard
// implements it) so the execute path stays free of policy.
type GuardHook interface {
	// MemFault reports a protection fault by fid, the sender the fault is
	// charged to (the flight recorder keeps the faulting address).
	MemFault(fid uint16)
	// RecircThrottled reports a packet dropped by the recirculation
	// fairness controller.
	RecircThrottled(fid uint16)
}

// SetGuardHook installs the isolation-event sink (nil disables reporting).
func (r *Runtime) SetGuardHook(h GuardHook) { r.guard = h }

// New builds a device from cfg with nothing admitted.
func New(cfg rmt.Config) (*Runtime, error) {
	dev, err := rmt.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &Runtime{dev: dev, passLat: dev.Config().PassLatency, res: &scratch{phv: &rmt.PHV{}},
		wants: make([]stageWant, dev.NumStages())}
	r.commit()
	return r, nil
}

// Device exposes the underlying device (for controllers and tests).
func (r *Runtime) Device() *rmt.Device { return r.dev }

// Admitted reports whether fid has been admitted.
func (r *Runtime) Admitted(fid uint16) bool { return r.rowOf(fid).admitted }

// Quarantined reports whether fid's packets are currently deactivated.
func (r *Runtime) Quarantined(fid uint16) bool { return r.rowOf(fid).quarantined }

// Revoked reports whether fid once held a grant that has been removed (and
// has not been re-admitted since).
func (r *Runtime) Revoked(fid uint16) bool { return r.rowOf(fid).revoked }

// Epoch returns fid's current grant epoch (0: no grant ever installed).
// Allocation responses carry it to the client, program capsules echo it
// back, and the guard drops capsules whose echo is stale.
func (r *Runtime) Epoch(fid uint16) uint8 { return r.rowOf(fid).epoch }

// NextEpoch returns the epoch the next grant installation will assign —
// what the controller stamps into reallocation notices sent before the
// install lands.
func (r *Runtime) NextEpoch(fid uint16) uint8 { return nextEpoch(r.Epoch(fid)) }

// nextEpoch advances a 7-bit epoch, skipping 0 so "no epoch" stays
// unambiguous.
func nextEpoch(e uint8) uint8 {
	if e >= packet.EpochMax {
		return 1
	}
	return e + 1
}

// row returns fid's row in the admission table for editing, adding the zero
// row on first sight. The pointer is valid until the next call.
func (r *Runtime) row(fid uint16) *fidRow {
	i, ok := findRow(r.rows, fid)
	if !ok {
		r.rows = slices.Insert(r.rows, i, fidRow{fid: fid})
	}
	return &r.rows[i]
}

// admit opens the admission gate for fid under its next epoch.
func (r *Runtime) admit(fid uint16) {
	row := r.row(fid)
	row.admitted, row.revoked = true, false
	row.epoch = nextEpoch(row.epoch)
}

// Deactivate suspends execution of fid's programs during a reallocation so
// clients observe a consistent memory snapshot (Section 4.3). Packets still
// forward, unexecuted.
func (r *Runtime) Deactivate(fid uint16) { r.setQuarantined(fid, true) }

// Reactivate resumes execution of fid's programs.
func (r *Runtime) Reactivate(fid uint16) { r.setQuarantined(fid, false) }

func (r *Runtime) setQuarantined(fid uint16, q bool) {
	r.row(fid).quarantined = q
	r.TableOps++
	r.commit()
}

// InstallGrant brings the protection and translation entries of g's FID to
// what the grant describes, zeroes the granted regions, and admits the FID
// under its next epoch. Only entries that differ from what is installed are
// touched, and the tables end up exactly as a removal followed by a fresh
// install would leave them. It returns the number of table operations
// performed, the currency of the provisioning-time model (Figure 8a:
// provisioning is dominated by table updates). A grant that cannot be
// installed is rolled back: the FID keeps no entries (and, if it was
// admitted, its old epoch), and the partial install and the removals are
// counted like any other table operation.
func (r *Runtime) InstallGrant(g Grant) (int, error) {
	ops, err := r.fillTables(g)
	if err != nil {
		ops += r.clearTables(g.FID)
	} else {
		r.admit(g.FID)
		ops++ // the admission gate entry
	}
	// Every path commits: the tables have been touched (install or
	// rollback).
	r.TableOps += uint64(ops)
	r.commit()
	return ops, err
}

// fillTables edits the FID's entries into g's regions (zeroed) and
// translation entries, stopping at the first access that does not fit; it
// returns the operations done. A region costs the prefixes its range-to-
// prefix expansion does not share with the installed one; a translation
// entry costs one write if it is new or differs, one delete if it is stale.
func (r *Runtime) fillTables(g Grant) (int, error) {
	wants := r.wants
	clear(wants)
	ops := 0
	for _, a := range g.Accesses {
		if a.Lo >= a.Hi {
			return ops, fmt.Errorf("runtime: empty grant region [%d,%d)", a.Lo, a.Hi)
		}
		phys := r.dev.PhysicalStage(a.Logical)
		st := r.dev.Stage(phys)
		if !st.Registers.InRange(a.Hi - 1) {
			return ops, fmt.Errorf("runtime: grant [%d,%d) exceeds stage memory", a.Lo, a.Hi)
		}
		region := rmt.Region{FID: g.FID, Lo: a.Lo, Hi: a.Hi}
		if old, _ := st.Prot.Region(g.FID); old != region {
			if err := st.Prot.Install(region); err != nil {
				return ops, err
			}
			ops += rmt.PrefixDiff(old, region)
		}
		wants[phys].region = true
		if err := st.Registers.Zero(a.Lo, a.Hi); err != nil {
			return ops, err
		}

		// A translation entry goes only where the program translates into
		// this access's region (Section 3.2); elsewhere MAR stays as it is.
		for _, l := range a.Xlate {
			w := &wants[r.dev.PhysicalStage(l)]
			w.xlate, w.tr = true, rmt.TranslateRegion(a.Lo, a.Hi)
		}
	}
	for s, w := range wants {
		st := r.dev.Stage(s)
		if !w.region {
			ops += st.Prot.Remove(g.FID)
		}
		if cur, ok := st.TranslateFor(g.FID); !w.xlate {
			ops += st.ClearTranslate(g.FID)
		} else if !ok || cur != w.tr {
			st.SetTranslate(g.FID, w.tr)
			ops++
		}
	}
	return ops, nil
}

// stageWant is what a grant wants in one physical stage; the rest is stale.
type stageWant struct {
	region, xlate bool
	tr            rmt.Translate
}

// AdmitStateless admits a FID with no memory grant — for programs that keep
// no switch state (e.g. the NOP latency probes of Figure 8b).
func (r *Runtime) AdmitStateless(fid uint16) {
	if !r.row(fid).admitted {
		r.admit(fid)
		r.TableOps++
		r.commit()
	}
}

// RemoveGrant removes all state for fid and returns the table operations
// performed.
func (r *Runtime) RemoveGrant(fid uint16) int {
	i, ok := findRow(r.rows, fid)
	if !ok || !r.rows[i].admitted {
		return 0
	}
	ops := r.clearTables(fid) + 1 // +1 for the admission gate entry
	row := &r.rows[i]
	row.admitted, row.quarantined, row.revoked = false, false, true
	r.TableOps += uint64(ops)
	r.commit()
	return ops
}

// clearTables removes fid's region and translation entry from every stage —
// the tables are the record of what a grant installed — and returns the
// table operations performed.
func (r *Runtime) clearTables(fid uint16) int {
	ops := 0
	for s := 0; s < r.dev.NumStages(); s++ {
		st := r.dev.Stage(s)
		ops += st.Prot.Remove(fid) + st.ClearTranslate(fid)
	}
	return ops
}

// Snapshot reads fid's region in the given physical stage via the
// control-plane register API (one of the paper's two state-extraction
// paths).
func (r *Runtime) Snapshot(fid uint16, phys int) ([]uint32, rmt.Region, error) {
	st := r.dev.Stage(phys)
	reg, ok := st.Prot.Region(fid)
	if !ok {
		return nil, rmt.Region{}, fmt.Errorf("runtime: fid %d has no region in stage %d", fid, phys)
	}
	words, err := st.Registers.Snapshot(reg.Lo, reg.Hi)
	return words, reg, err
}

// RestoreRegion writes a captured register image into fid's currently
// installed region in the given physical stage — the restore half of the
// memsync snapshot->restore protocol, used by online defragmentation to
// carry tenant state across a migration. Words beyond the region are
// truncated (a migrated region never grows, but a partial image must not
// escape the grant). Restore updates parity, so migrated state does not
// trip the corruption sweep. Returns the words written.
func (r *Runtime) RestoreRegion(fid uint16, phys int, words []uint32) (int, error) {
	st := r.dev.Stage(phys)
	reg, ok := st.Prot.Region(fid)
	if !ok {
		return 0, fmt.Errorf("runtime: fid %d has no region in stage %d", fid, phys)
	}
	n := len(words)
	if max := int(reg.Hi - reg.Lo); n > max {
		n = max
	}
	if err := st.Registers.Restore(reg.Lo, words[:n]); err != nil {
		return 0, err
	}
	return n, nil
}

// Output is one packet emitted by program execution.
type Output struct {
	Active   *packet.Active
	ToSender bool
	DstSet   bool
	Dst      uint32
	Dropped  bool
	IsClone  bool
	Executed bool // false when the program was passed through unexecuted
	Latency  time.Duration
	Passes   int
}

// RegionFor returns fid's installed region in a physical stage (for tests
// and the controller).
func (r *Runtime) RegionFor(fid uint16, phys int) (rmt.Region, bool) {
	return r.dev.Stage(phys).Prot.Region(fid)
}

// AdmittedFIDs returns every admitted FID in ascending order — the
// control-plane census a restarted controller starts from.
func (r *Runtime) AdmittedFIDs() []uint16 {
	var out []uint16
	for _, row := range r.rows {
		if row.admitted {
			out = append(out, row.fid)
		}
	}
	return out
}

// InstalledRegions reads fid's protected regions out of every stage's TCAM:
// the switch-resident allocation state that survives a controller crash.
func (r *Runtime) InstalledRegions(fid uint16) map[int]rmt.Region {
	out := map[int]rmt.Region{}
	for s := 0; s < r.dev.NumStages(); s++ {
		if reg, ok := r.dev.Stage(s).Prot.Region(fid); ok {
			out[s] = reg
		}
	}
	return out
}

// Corruption is one parity-sweep hit: a word whose SRAM content no longer
// matches its parity bit. Who holds it is the allocator's to say.
type Corruption struct {
	Stage int
	Addr  uint32
}

// SweepCorruption runs the parity scrub pass over every stage's register
// array and returns the corrupted words found, in (stage, addr) order.
func (r *Runtime) SweepCorruption() []Corruption {
	var out []Corruption
	for s := 0; s < r.dev.NumStages(); s++ {
		st := r.dev.Stage(s)
		for _, addr := range st.Registers.SweepParity(0, uint32(st.Registers.Len())) {
			out = append(out, Corruption{Stage: s, Addr: addr})
		}
	}
	return out
}

// ScrubWord acknowledges a corrupted word so subsequent sweeps stop
// reporting it; the caller is responsible for quarantining the block.
func (r *Runtime) ScrubWord(phys int, addr uint32) {
	r.dev.Stage(phys).Registers.Scrub(addr)
}
