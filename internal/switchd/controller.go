package switchd

import (
	"sort"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/policy"
	"activermt/internal/runtime"
)

// Control-plane latencies of the paper's testbed (Section 6.2): provisioning
// time is dominated by BFRT table updates, the digest path adds a small fixed
// delay, and allocation computation scales with the mutant search. They are
// calibrated so a contended admission lands at one-to-two seconds, matching
// Figure 8a's shape (table updates dominate). The snapshot window is not
// among them: it is the one cost the policy loop re-decides at runtime (see
// Controller.snapshotTimeout).
const (
	tableOpCost   = 2 * time.Millisecond   // per table entry installed or removed
	digestLatency = 100 * time.Microsecond // data plane -> controller digest
	computeBase   = 5 * time.Millisecond   // fixed allocation-computation overhead
	computePerMut = 30 * time.Microsecond  // per mutant considered
)

// ProvisionRecord documents one admission/release for the experiment
// harness (Figure 8a's breakdown).
type ProvisionRecord struct {
	FID          uint16
	Start, End   time.Duration // virtual time
	Compute      time.Duration // modeled allocation-computation time
	SnapshotWait time.Duration // waiting for reallocated clients
	TableTime    time.Duration // table-update time
	TableOps     int
	Failed       bool
	Reallocated  int
	Release      bool
	Readmit      bool // idempotent re-admission after a controller restart
	Sweep        bool // corruption sweep-and-repair run
	Evict        bool // guard-driven eviction of a violating tenant
	Defrag       bool // online defragmentation pass
	Escalations  int  // realloc notices re-sent during the snapshot window
	TimedOut     bool // snapshot window ended by timeout, not completion
}

// Controller is the switch control plane: admission control and dynamic
// memory allocation (Section 4.3). Requests are serialized; each admission
// runs the deactivate -> snapshot -> update -> reactivate protocol for any
// reallocated applications.
//
// The controller is crash-restartable: Crash drops all in-memory state
// (queue, client directory, allocation books) and Restart rebuilds the
// allocation state from the switch tables, which survive a control-plane
// failure. Clients whose allocation requests are retransmitted against a
// restarted controller are re-admitted idempotently at their installed
// placements.
type Controller struct {
	eng *netsim.Engine
	sw  *Switch
	rt  *runtime.Runtime
	al  *alloc.Allocator

	// snapshotTimeout bounds a reallocation's snapshot window: unresponsive
	// clients are timed out. Node.ApplyPolicy sets it from the policy loop.
	snapshotTimeout time.Duration

	clients map[uint16]packet.MAC // fid -> client MAC
	busy    bool
	queue   []queued

	// alive models control-plane failure: a dead controller drops digests,
	// and its in-flight protocol continuations die with it (keyed by life).
	alive bool
	life  uint64

	// snapWaiter consumes FlagSnapDone notifications during the realloc
	// window of the admission in progress.
	snapWaiter func(fid uint16)

	// restorePlan carries register images captured by an in-flight
	// defragmentation migration: fid -> stage -> words. applyPhase writes
	// them back right after InstallGrant zeroes the granted regions, so a
	// migrated tenant reactivates with its pre-migration state at the new
	// offsets. Lost on Crash — the old regions are still installed then, so
	// recovery sees consistent (unmigrated) state.
	restorePlan map[uint16]map[int][]uint32

	// noMigrate pins FIDs against defragmentation. Fabric replica sets
	// require bit-identical placements on every member device; migrating
	// one member locally would skew the set, so the fabric pins them here.
	noMigrate map[uint16]bool

	// sweepEvery, when >0, re-arms a periodic SweepAndRepair job; set by
	// Node.ApplyPolicy from the policy loop's SweepEvery decision.
	sweepEvery time.Duration
	sweepArmed bool

	// Records for the harness — and telemetry, which reads the job, failure
	// and phase-time families from them.
	Records []ProvisionRecord

	// guard, when attached, receives Reinstate calls as tenants are granted
	// fresh allocations; the controller is its Escalator.
	guard *guard.Guard

	// relayoutsLost carries the elastic re-layouts counted by the books
	// crashes discarded, so activermt_alloc_relayouts_total stays monotone
	// (see telemetry.go).
	relayoutsLost [2]uint64

	// Fault/recovery counters.
	Crashes, Restarts     uint64
	DigestsDropped        uint64
	Readmissions          uint64
	SnapshotEscalations   uint64
	SnapshotTimeouts      uint64
	Evacuations           uint64
	QuarantinedBlockCount uint64
	GuardQuarantines      uint64
	GuardEvictions        uint64

	// Defragmentation counters.
	DefragPasses        uint64 // passes run (including no-op passes)
	DefragMigrations    uint64 // tenants live-migrated
	DefragBlocksMoved   uint64 // blocks re-homed by those migrations
	DefragWordsRestored uint64 // register words copied via snapshot->restore
}

type queued struct {
	f      *packet.Frame
	sweep  bool
	evict  uint16 // FID to evict (guard escalation)
	doEv   bool
	defrag bool
	moves  int // migration budget for a defrag pass
}

// NewController wires a controller to its switch, runtime, and allocator.
func NewController(eng *netsim.Engine, sw *Switch, al *alloc.Allocator) *Controller {
	c := &Controller{
		eng:             eng,
		sw:              sw,
		rt:              sw.Runtime(),
		al:              al,
		snapshotTimeout: policy.DefaultSnapshotTimeout,
		clients:         make(map[uint16]packet.MAC),
		noMigrate:       make(map[uint16]bool),
		alive:           true,
	}
	sw.SetController(c)
	return c
}

// Allocator exposes the allocation state (for experiments).
func (c *Controller) Allocator() *alloc.Allocator { return c.al }

// AttachGuard wires the capsule guard to the control plane: the controller
// becomes the guard's escalator (quarantine and evict decisions land here)
// and reinstates ledgers when it grants fresh allocations.
func (c *Controller) AttachGuard(g *guard.Guard) {
	c.guard = g
	g.SetEscalator(c)
}

// GuardQuarantine implements guard.Escalator: deactivate the tenant so its
// packets stop executing. The table write is immediate — quarantine is the
// fast path; a queued quarantine would let the attacker keep faulting behind
// an in-progress admission.
func (c *Controller) GuardQuarantine(fid uint16) {
	if !c.alive {
		return
	}
	c.rt.Deactivate(fid)
	c.GuardQuarantines++
}

// GuardEvict implements guard.Escalator: tear the tenant down through the
// normal release/reallocation machinery. Eviction reshuffles neighbors, so
// it is serialized with admissions like every other allocation job. Until
// the job runs, the guard's ingress gate already refuses the tenant's
// traffic.
func (c *Controller) GuardEvict(fid uint16) {
	if !c.alive {
		return
	}
	c.queue = append(c.queue, queued{evict: fid, doEv: true})
	c.pump()
}

// Alive reports whether the control plane is up.
func (c *Controller) Alive() bool { return c.alive }

// after schedules fn on the engine, cancelled implicitly if the controller
// crashes in the meantime (a dead controller's protocol continuations must
// not mutate the rebuilt state).
func (c *Controller) after(d time.Duration, fn func()) {
	life := c.life
	c.eng.Schedule(d, func() {
		if c.life != life || !c.alive {
			return
		}
		fn()
	})
}

// Crash kills the control plane: the admission queue, the client directory,
// and the allocation books are lost, and every in-flight protocol
// continuation dies. The data plane (switch tables, register state) is
// untouched and keeps executing admitted programs.
func (c *Controller) Crash() {
	c.alive = false
	c.life++
	c.busy = false
	c.queue = nil
	c.snapWaiter = nil
	c.restorePlan = nil
	c.sweepArmed = false
	c.clients = make(map[uint16]packet.MAC)
	if fresh, err := alloc.New(c.al.Config()); err == nil {
		inplace, full := c.al.Relayouts()
		c.relayoutsLost[0] += inplace
		c.relayoutsLost[1] += full
		c.al = fresh
	}
	c.Crashes++
}

// Restart brings the control plane back up and rebuilds the allocation
// state from the switch tables: every admitted FID is re-registered at its
// installed regions (constraints are recovered later, from the client's
// retransmitted request — see the re-admission path in admit). FIDs left
// deactivated by an interrupted reallocation window are reactivated; their
// clients escape the stuck window via their own realloc timeout and
// re-negotiate.
func (c *Controller) Restart() {
	if c.alive {
		return
	}
	c.alive = true
	c.Restarts++
	bw := c.al.Config().BlockWords
	for _, fid := range c.rt.AdmittedFIDs() {
		regions := c.rt.InstalledRegions(fid)
		if len(regions) > 0 {
			blocks := make(map[int]alloc.BlockRange, len(regions))
			for s, reg := range regions {
				blocks[s] = alloc.BlockRange{Lo: int(reg.Lo) / bw, Hi: (int(reg.Hi) + bw - 1) / bw}
			}
			_ = c.al.Recover(fid, blocks)
		}
		if c.rt.Quarantined(fid) {
			c.rt.Reactivate(fid)
		}
	}
}

// Digest delivers a control packet from the data plane after the digest
// latency (the switch CPU path).
func (c *Controller) Digest(f *packet.Frame) {
	if !c.alive {
		c.DigestsDropped++
		return
	}
	c.after(digestLatency, func() {
		h := f.Active.Header
		if h.Type() == packet.TypeControl && h.Flags&packet.FlagSnapDone != 0 {
			// Snapshot completions bypass the admission queue: the
			// in-progress admission is waiting on them.
			if c.snapWaiter != nil {
				c.snapWaiter(h.FID)
			}
			return
		}
		c.queue = append(c.queue, queued{f: f})
		c.pump()
	})
}

// pump serializes request processing: applications are admitted one at a
// time (Section 4.3).
func (c *Controller) pump() {
	if c.busy || !c.alive || len(c.queue) == 0 {
		return
	}
	q := c.queue[0]
	c.queue = c.queue[1:]
	c.busy = true
	c.dispatch(q)
}

func (c *Controller) finish() {
	c.busy = false
	c.pump()
}

// conclude ends a job: stamp its end, record it, and let the queue move on.
func (c *Controller) conclude(rec ProvisionRecord) {
	rec.End = c.eng.Now()
	c.Records = append(c.Records, rec)
	c.finish()
}

// notify sends fid's client, when the controller knows it, a control notice:
// an eviction, or a reallocation or release done.
func (c *Controller) notify(fid uint16, flags uint16) {
	mac, ok := c.clients[fid]
	if !ok {
		return
	}
	a := &packet.Active{Header: packet.ActiveHeader{FID: fid, Flags: packet.FlagFromSwch | flags}}
	a.Header.SetType(packet.TypeControl)
	_ = c.sw.SendToHost(mac, a)
}

// placementsOf returns the current placement of every FID in affected, in
// FID order: the victims a sweep or defrag pass hands the reallocation
// protocol.
func (c *Controller) placementsOf(affected map[uint16]bool) []*alloc.Placement {
	fids := make([]uint16, 0, len(affected))
	for fid := range affected {
		fids = append(fids, fid)
	}
	sort.Slice(fids, func(i, j int) bool { return fids[i] < fids[j] })
	var changed []*alloc.Placement
	for _, fid := range fids {
		if pl, ok := c.al.PlacementFor(fid); ok {
			changed = append(changed, pl)
		}
	}
	return changed
}

func (c *Controller) dispatch(q queued) {
	if q.sweep {
		c.runSweep()
		return
	}
	if q.doEv {
		c.runEviction(q.evict)
		return
	}
	if q.defrag {
		c.runDefrag(q.moves)
		return
	}
	h := q.f.Active.Header
	switch {
	case h.Type() == packet.TypeAllocReq:
		c.clients[h.FID] = q.f.Eth.Src
		c.admit(h.FID, q.f.Active.AllocReq)
	case h.Type() == packet.TypeControl && h.Flags&packet.FlagRelease != 0:
		c.clients[h.FID] = q.f.Eth.Src
		c.release(h.FID)
	default:
		c.finish()
	}
}

func (c *Controller) respondFailure(fid uint16) {
	resp := &packet.Active{
		Header:    packet.ActiveHeader{FID: fid, Flags: packet.FlagFromSwch | packet.FlagFailed},
		AllocResp: &packet.AllocResponse{},
	}
	resp.Header.SetType(packet.TypeAllocResp)
	_ = c.sw.SendToHost(c.clients[fid], resp)
}

// runEviction tears down a tenant the guard escalated to eviction: release
// its allocation (expanding elastic neighbors through the normal
// reallocation protocol), strip its tables, and send the client an eviction
// notice so it restarts its lifecycle from Idle.
func (c *Controller) runEviction(fid uint16) {
	rec := ProvisionRecord{FID: fid, Start: c.eng.Now(), Evict: true}
	changed, err := c.al.Release(fid)
	if err != nil {
		changed = nil // stateless or unknown to the books: nothing to expand
	}
	rec.TableOps += c.rt.RemoveGrant(fid)
	c.GuardEvictions++
	c.notify(fid, packet.FlagFailed|packet.FlagEvicted)
	rec.Reallocated = len(changed)
	c.reallocPhase(rec, nil, changed, false)
}

// responseFor frames a placement's wire response (alloc.Placement.ToResponse)
// with the grant epoch the client must echo on its capsules. Reallocation
// notices go out before the table update lands, so they carry the epoch the
// pending install will assign.
func (c *Controller) responseFor(pl *alloc.Placement, realloc bool) *packet.Active {
	epoch := c.rt.Epoch(pl.FID)
	if realloc {
		epoch = c.rt.NextEpoch(pl.FID)
	}
	a := &packet.Active{
		Header:    packet.ActiveHeader{FID: pl.FID, Flags: packet.FlagFromSwch},
		AllocResp: pl.ToResponse(epoch),
	}
	if realloc {
		a.Header.Flags |= packet.FlagRealloc
	}
	a.Header.SetType(packet.TypeAllocResp)
	return a
}

// admit runs the full admission protocol for fid.
func (c *Controller) admit(fid uint16, req *packet.AllocRequest) {
	rec := ProvisionRecord{FID: fid, Start: c.eng.Now()}
	// Retransmitted requests are answered idempotently with the existing
	// placement (allocation requests are retried over a lossy data plane).
	if pl, ok := c.al.PlacementFor(fid); ok {
		_ = c.sw.SendToHost(c.clients[fid], c.responseFor(pl, false))
		c.finish()
		return
	}
	// A FID resident in recovered form is a pre-crash tenant whose client
	// is re-negotiating: Readmit rebuilds its full allocation state from the
	// request's constraints and the installed tables, answering with the
	// installed placement when the tables still match (and re-placing it
	// when they don't).
	rec.Readmit = c.al.Recovered(fid)
	cons, err := alloc.FromRequest(req)
	if err != nil {
		rec.Failed = true
		c.respondFailure(fid)
		c.conclude(rec)
		return
	}
	cons.Name = "fid"

	// Stateless services (no memory accesses) bypass the allocator: admit
	// the FID and answer immediately.
	if len(cons.Accesses) == 0 && !rec.Readmit {
		c.rt.AdmitStateless(fid)
		if c.guard != nil {
			c.guard.Reinstate(fid)
		}
		rec.TableOps = 1
		rec.TableTime = tableOpCost
		c.after(computeBase+rec.TableTime, func() {
			_ = c.sw.SendToHost(c.clients[fid], c.responseFor(&alloc.Placement{FID: fid}, false))
			c.conclude(rec)
		})
		return
	}

	allocate := c.al.Allocate
	if rec.Readmit {
		allocate = c.al.Readmit
	}
	res, err := allocate(fid, cons)
	if err != nil || res.Failed {
		rec.Failed = true
		rec.Compute = computeBase
		if res != nil {
			rec.Compute += time.Duration(res.MutantsTotal) * computePerMut
		}
		c.after(rec.Compute, func() {
			c.respondFailure(fid)
			c.conclude(rec)
		})
		return
	}
	if rec.Readmit {
		c.Readmissions++
	}
	rec.Compute = computeBase + time.Duration(res.MutantsTotal)*computePerMut
	rec.Reallocated = len(res.Reallocated)

	c.after(rec.Compute, func() {
		c.reallocPhase(rec, res.New, res.Reallocated, false)
	})
}

// release handles a client departure, expanding elastic neighbors.
func (c *Controller) release(fid uint16) {
	rec := ProvisionRecord{FID: fid, Start: c.eng.Now(), Release: true}
	changed, err := c.al.Release(fid)
	if err != nil {
		if c.rt.Admitted(fid) { // stateless service: nothing allocated
			rec.TableOps += c.rt.RemoveGrant(fid)
			c.reallocPhase(rec, nil, nil, true)
			return
		}
		rec.Failed = true
		c.conclude(rec)
		return
	}
	rec.TableOps += c.rt.RemoveGrant(fid)
	rec.Reallocated = len(changed)
	c.reallocPhase(rec, nil, changed, true)
}

// SweepAndRepair schedules a corruption sweep over every stage's register
// memory, serialized with admissions like any other control-plane job.
// Corrupted blocks are quarantined in the allocator and their owners
// re-placed through the normal reallocation protocol (deactivate ->
// snapshot -> update -> reactivate), so applications keep whatever state
// survives and lose only the fenced blocks.
func (c *Controller) SweepAndRepair() {
	if !c.alive {
		return
	}
	c.queue = append(c.queue, queued{sweep: true})
	c.pump()
}

// runSweep executes one sweep-and-repair pass (called from the queue).
func (c *Controller) runSweep() {
	rec := ProvisionRecord{Start: c.eng.Now(), Sweep: true}
	reports := c.rt.SweepCorruption()
	bw := c.al.Config().BlockWords

	// One corrupted word condemns its whole block; healthy blocks between
	// corrupted ones stay usable, so blocks are fenced individually.
	perFID := map[uint16]map[int][]alloc.BlockRange{}
	type sb struct{ stage, block int }
	var unowned []sb
	seenBlock := map[sb]bool{}
	affected := map[uint16]bool{}
	for _, rep := range reports {
		c.rt.ScrubWord(rep.Stage, rep.Addr)
		block := int(rep.Addr) / bw
		if c.al.QuarantinedIn(rep.Stage, block) || seenBlock[sb{rep.Stage, block}] {
			continue
		}
		seenBlock[sb{rep.Stage, block}] = true
		if _, resident := c.al.App(rep.FID); rep.Owned && resident {
			if perFID[rep.FID] == nil {
				perFID[rep.FID] = map[int][]alloc.BlockRange{}
			}
			perFID[rep.FID][rep.Stage] = append(perFID[rep.FID][rep.Stage],
				alloc.BlockRange{Lo: block, Hi: block + 1})
		} else {
			unowned = append(unowned, sb{rep.Stage, block})
		}
		c.QuarantinedBlockCount++
	}
	if len(perFID) == 0 && len(unowned) == 0 {
		c.conclude(rec)
		return
	}

	victims := make([]uint16, 0, len(perFID))
	for fid := range perFID {
		victims = append(victims, fid)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	var evicted []uint16
	for _, fid := range victims {
		res, err := c.al.Evacuate(fid, perFID[fid])
		c.Evacuations++
		if err != nil || res.Failed {
			// Cannot re-place around the damage: evict the app entirely
			// and tell the client, which restarts its lifecycle.
			rec.TableOps += c.rt.RemoveGrant(fid)
			evicted = append(evicted, fid)
		} else {
			affected[fid] = true
		}
		if res != nil { // neighbors move into an evicted victim's space too
			for _, pl := range res.Reallocated {
				affected[pl.FID] = true
			}
		}
	}
	for _, q := range unowned {
		pls, _ := c.al.Quarantine(q.stage, alloc.BlockRange{Lo: q.block, Hi: q.block + 1})
		for _, pl := range pls {
			affected[pl.FID] = true
		}
	}
	for _, fid := range evicted {
		delete(affected, fid)
		c.respondFailure(fid)
	}

	// Everyone whose regions moved goes through the reallocation protocol
	// with their final placement.
	changed := c.placementsOf(affected)
	rec.Reallocated = len(changed)
	c.reallocPhase(rec, nil, changed, false)
}

// reallocPhase notifies and quarantines reallocated applications, waits for
// their snapshot completions (or the timeout), then applies table updates
// and reactivates everyone. Halfway through the window, still-pending
// clients get their realloc notice re-sent (the first copy crosses a lossy
// data plane); a window that still times out is recorded as an escalation.
func (c *Controller) reallocPhase(rec ProvisionRecord, newPl *alloc.Placement, changed []*alloc.Placement, release bool) {
	waitStart := c.eng.Now()
	pending := map[uint16]bool{}
	plByFID := map[uint16]*alloc.Placement{}
	for _, pl := range changed {
		pending[pl.FID] = true
		plByFID[pl.FID] = pl
		c.rt.Deactivate(pl.FID)
		rec.TableOps++
		if mac, ok := c.clients[pl.FID]; ok {
			_ = c.sw.SendToHost(mac, c.responseFor(pl, true))
		} else {
			delete(pending, pl.FID) // no client to wait for
		}
	}

	done := false
	proceed := func() {
		if done {
			return
		}
		done = true
		c.snapWaiter = nil
		rec.SnapshotWait = c.eng.Now() - waitStart
		c.applyPhase(rec, newPl, changed, release)
	}
	if len(pending) == 0 {
		proceed()
		return
	}
	c.snapWaiter = func(fid uint16) {
		delete(pending, fid)
		if len(pending) == 0 {
			proceed()
		}
	}
	// Escalation: re-send the realloc notice to laggards at half-window.
	c.after(c.snapshotTimeout/2, func() {
		if done || len(pending) == 0 {
			return
		}
		laggards := make([]uint16, 0, len(pending))
		for fid := range pending {
			laggards = append(laggards, fid)
		}
		sort.Slice(laggards, func(i, j int) bool { return laggards[i] < laggards[j] })
		for _, fid := range laggards {
			if mac, ok := c.clients[fid]; ok {
				_ = c.sw.SendToHost(mac, c.responseFor(plByFID[fid], true))
				rec.Escalations++
				c.SnapshotEscalations++
			}
		}
	})
	c.after(c.snapshotTimeout, func() {
		if !done && len(pending) > 0 {
			rec.TimedOut = true
			c.SnapshotTimeouts++
		}
		proceed()
	})
}

// applyPhase installs the new table state and reactivates applications.
func (c *Controller) applyPhase(rec ProvisionRecord, newPl *alloc.Placement, changed []*alloc.Placement, release bool) {
	ops := rec.TableOps
	for _, pl := range changed {
		n, err := c.rt.InstallGrant(runtime.GrantOf(pl))
		ops += n
		if err != nil {
			// TCAM exhaustion mid-update: surface as failure for the
			// newcomer but keep existing apps running.
			continue
		}
		// A defrag migration restores the tenant's captured register image
		// into the freshly granted (and zeroed) regions before reactivation,
		// so the client never observes lost state at the new offsets.
		if save, ok := c.restorePlan[pl.FID]; ok {
			for stage, words := range save {
				if n, err := c.rt.RestoreRegion(pl.FID, stage, words); err == nil {
					c.DefragWordsRestored += uint64(n)
				}
			}
			delete(c.restorePlan, pl.FID)
		}
	}
	var installErr error
	if newPl != nil {
		n, err := c.rt.InstallGrant(runtime.GrantOf(newPl))
		ops += n
		installErr = err
	}
	rec.TableOps = ops
	rec.TableTime = time.Duration(ops) * tableOpCost

	c.after(rec.TableTime, func() {
		for _, pl := range changed {
			c.rt.Reactivate(pl.FID)
			c.notify(pl.FID, packet.FlagDone|packet.FlagRealloc)
		}
		switch {
		case newPl != nil && installErr != nil:
			// Roll the allocation back so state stays consistent.
			_, _ = c.al.Release(newPl.FID)
			rec.Failed = true
			c.respondFailure(newPl.FID)
		case newPl != nil:
			// A readmitted tenant may still be deactivated from the
			// pre-crash reallocation window; clear it before answering.
			if c.rt.Quarantined(newPl.FID) {
				c.rt.Reactivate(newPl.FID)
			}
			// A fresh grant wipes any guard history: re-admission after an
			// eviction starts a clean escalation ladder.
			if c.guard != nil {
				c.guard.Reinstate(newPl.FID)
			}
			_ = c.sw.SendToHost(c.clients[newPl.FID], c.responseFor(newPl, false))
		case release:
			c.notify(rec.FID, packet.FlagDone|packet.FlagRelease)
			delete(c.clients, rec.FID)
		}
		c.conclude(rec)
	})
}
