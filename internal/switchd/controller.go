package switchd

import (
	"slices"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/runtime"
)

// Control-plane latencies of the paper's testbed (Section 6.2): provisioning
// time is dominated by BFRT table updates, the digest path adds a small fixed
// delay, and allocation computation scales with the mutant search. They are
// calibrated so a contended admission lands at one-to-two seconds, matching
// Figure 8a's shape (table updates dominate). The snapshot window bounds how
// long a reallocation waits for its moved clients' acks before it times the
// laggards out.
const (
	tableOpCost     = 2 * time.Millisecond   // per table entry installed or removed
	digestLatency   = 100 * time.Microsecond // data plane -> controller digest
	computeBase     = 5 * time.Millisecond   // fixed allocation-computation overhead
	computePerMut   = 30 * time.Microsecond  // per mutant considered
	snapshotTimeout = 500 * time.Millisecond // snapshot window before forced reactivation
)

// JobKind names a control-plane job. Its values are the kind labels of
// activermt_ctrl_jobs_total.
type JobKind string

// Job kinds.
const (
	JobAdmit   JobKind = "admit"
	JobReadmit JobKind = "readmit" // idempotent re-admission after a controller restart
	JobRelease JobKind = "release"
	JobSweep   JobKind = "sweep"  // corruption sweep-and-repair run
	JobEvict   JobKind = "evict"  // guard-driven eviction of a violating tenant
	JobDefrag  JobKind = "defrag" // online defragmentation pass
)

// ProvisionRecord documents one control-plane job for the experiment
// harness (Figure 8a's breakdown).
type ProvisionRecord struct {
	FID          uint16
	Kind         JobKind
	Start, End   time.Duration // virtual time
	Compute      time.Duration // modeled allocation-computation time
	SnapshotWait time.Duration // waiting for reallocated clients
	TableTime    time.Duration // table-update time
	TableOps     int
	Failed       bool
	Reallocated  int
	// Release repeats Kind == JobRelease; only bench/churn.go reads it.
	Release bool
}

// phase names the step a job takes next. pump starts a job in phaseAllocate,
// which runs at once; between two engine events the job in progress waits in
// one of the other three: for its compute time (phaseOpen), inside the
// snapshot window (phaseInstall), or for its table time (phaseFinish).
type phase uint8

const (
	phaseAllocate phase = iota // the kind's allocator work
	phaseOpen                  // deactivate the moved tenants, send their realloc notices
	phaseInstall               // install the grants, restoring migrated register images
	phaseFinish                // reactivate, answer and record
)

// atOnce asks next to run a phase without an engine event.
const atOnce time.Duration = -1

// job is one serialized control-plane job and everything its phases hand
// each other. A concluded job is recycled with its storage (newJob); its
// serial, handed out when it starts and never repeated, crashes included,
// tells its continuations from those of the job that held it before.
type job struct {
	c      *Controller
	rec    ProvisionRecord // FID, Kind and the Figure 8a breakdown
	serial uint64
	phase  phase
	req    packet.AllocRequest // admit: the request, its accesses in the job's storage
	mac    packet.MAC          // admit, release: the sender

	grant     *alloc.Placement   // admit: the newcomer's placement
	moved     []*alloc.Placement // residents whose regions changed, in FID order
	pending   []uint16           // moved tenants whose snapshot ack is outstanding, in FID order
	escalated bool               // the half-window re-send has run

	// images are the register images a defrag migration captured, fid ->
	// stage -> words, written back right after InstallGrant zeroes the new
	// regions. They die with the job: a crash before the install loses them
	// while the old regions are still installed, so recovery reads
	// consistent, unmigrated tables.
	images map[uint16]map[int][]uint32
}

// Controller is the switch control plane: admission control and dynamic
// memory allocation (Section 4.3). Jobs are serialized; each runs the
// deactivate -> snapshot -> update -> reactivate protocol for any
// reallocated applications, one phase per step.
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

	clients map[uint16]packet.MAC // fid -> client MAC
	queue   []*job
	cur     *job          // the job in progress
	spare   []*job        // concluded jobs, recycled by newJob
	serial  uint64        // the last job serial handed out
	grant   runtime.Grant // scratch: the install form of the placement being installed

	// resp is the scratch responseFor frames into; SendToHost encodes it
	// before it returns.
	resp      packet.Active
	respAlloc packet.AllocResponse

	// alive models control-plane failure: a dead controller drops digests,
	// and its in-flight protocol continuations die with it (keyed by life).
	alive bool
	life  uint64

	// noMigrate pins FIDs against defragmentation. Fabric replica sets
	// require bit-identical placements on every member device; migrating
	// one member locally would skew the set, so the fabric pins them here.
	noMigrate map[uint16]bool

	// Records for the harness — and telemetry, which reads the job, failure
	// and phase-time families from them.
	Records []ProvisionRecord

	// guard receives Reinstate calls as tenants are granted fresh
	// allocations; the controller is its Escalator.
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
	DefragPasses        uint64 // passes that migrated at least one tenant
	DefragMigrations    uint64 // tenants live-migrated
	DefragBlocksMoved   uint64 // blocks re-homed by those migrations
	DefragWordsRestored uint64 // register words copied via snapshot->restore
}

// Allocator exposes the allocation state (for experiments).
func (c *Controller) Allocator() *alloc.Allocator { return c.al }

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
	c.enqueue(c.newJob(JobEvict, fid))
}

// Crash kills the control plane: the job queue, the client directory, and
// the allocation books are lost, and every in-flight protocol continuation
// dies. The data plane (switch tables, register state) is untouched and
// keeps executing admitted programs.
func (c *Controller) Crash() {
	c.alive = false
	c.life++
	c.cur = nil
	c.queue = nil
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
// retransmitted request — see the readmit job). FIDs left deactivated by an
// interrupted reallocation window are reactivated; their clients escape the
// stuck window via their own realloc timeout and re-negotiate.
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
// latency (the switch CPU path): an allocation request or a release becomes
// a job, and a snapshot completion goes to the job whose window is open. It
// copies the sender, the header and the request (nil unless h is an
// allocation request) into a job, so nothing of the switch's decode scratch
// is retained; the job is the timer that queues it. A controller that
// crashes in the meantime drops the digest: a dead controller's
// continuations must not mutate the rebuilt state.
func (c *Controller) Digest(src packet.MAC, h packet.ActiveHeader, req *packet.AllocRequest) {
	if !c.alive {
		c.DigestsDropped++
		return
	}
	var j *job
	switch typ, flags := h.Type(), h.Flags; {
	case typ == packet.TypeControl && flags&packet.FlagSnapDone != 0:
		c.eng.ScheduleTimer(digestLatency, c, c.life<<18|uint64(h.FID)<<2|2)
		return
	case typ == packet.TypeAllocReq:
		j = c.newJob(JobAdmit, h.FID)
		j.req, j.req.Accesses = *req, append(j.req.Accesses, req.Accesses...) // into the job's storage
	case typ == packet.TypeControl && flags&packet.FlagRelease != 0:
		j = c.newJob(JobRelease, h.FID)
	default:
		c.eng.ScheduleTimer(digestLatency, c, 0) // a digest that asks nothing
		return
	}
	j.mac = src
	c.eng.ScheduleTimer(digestLatency, j, c.life)
}

// Fire implements netsim.Timer for a job's digest: the job joins the queue
// unless its controller crashed while the digest was on its way.
func (j *job) Fire(life uint64) {
	if c := j.c; c.life == life && c.alive {
		c.enqueue(j)
	}
}

// Fire implements netsim.Timer for the controller's own continuations. An
// odd arg steps the job in progress if it still has the serial and phase
// the arg carries (next). An even one with bit 1 set is a snapshot-done
// digest from FID arg>>2&0xffff sent in life arg>>18.
func (c *Controller) Fire(arg uint64) {
	j := c.cur
	switch {
	case !c.alive || j == nil:
	case arg&1 != 0:
		if j.serial == arg>>3 && j.phase == phase(arg>>1&3) {
			c.step(j)
		}
	case arg&2 != 0 && arg>>18 == c.life && j.phase == phaseInstall:
		if i := slices.Index(j.pending, uint16(arg>>2)); i >= 0 {
			if j.pending = slices.Delete(j.pending, i, i+1); len(j.pending) == 0 {
				c.step(j)
			}
		}
	}
}

// newJob returns a job of kind for fid, recycling a concluded job and its
// storage when there is one.
func (c *Controller) newJob(kind JobKind, fid uint16) *job {
	var j *job
	if n := len(c.spare); n > 0 {
		j, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		j = new(job)
	}
	*j = job{c: c, rec: ProvisionRecord{FID: fid, Kind: kind}, req: packet.AllocRequest{Accesses: j.req.Accesses[:0]}, pending: j.pending[:0]}
	return j
}

// enqueue adds a job to the queue. Jobs run one at a time (Section 4.3).
func (c *Controller) enqueue(j *job) {
	c.queue = append(c.queue, j)
	c.pump()
}

// pump starts the next queued job when none is in progress.
func (c *Controller) pump() {
	if c.cur != nil || !c.alive || len(c.queue) == 0 {
		return
	}
	j := c.queue[0]
	c.queue = c.queue[:copy(c.queue, c.queue[1:])]
	c.cur = j
	c.serial++
	j.serial = c.serial
	j.rec.Start = c.eng.Now()
	c.step(j)
}

// step runs the phase j is in. Each phase ends by handing j to next, or by
// concluding it.
func (c *Controller) step(j *job) {
	switch j.phase {
	case phaseAllocate:
		c.allocate(j)
	case phaseOpen:
		c.open(j)
	case phaseInstall:
		c.install(j)
	case phaseFinish:
		c.finish(j)
	}
}

// next moves j to phase p and steps it after d, or at once when d is
// atOnce. A step that finds its job over or moved on, or its controller
// crashed in the meantime, does nothing.
func (c *Controller) next(j *job, p phase, d time.Duration) {
	j.phase = p
	if d == atOnce {
		c.step(j)
		return
	}
	c.eng.ScheduleTimer(d, c, j.serial<<3|uint64(p)<<1|1)
}

// conclude ends the job in progress — recorded unless it was a retransmitted
// request answered from the books — and lets the queue move on.
func (c *Controller) conclude(j *job, record bool) {
	if record {
		j.rec.End = c.eng.Now()
		j.rec.Release = j.rec.Kind == JobRelease
		c.Records = append(c.Records, j.rec)
	}
	c.cur = nil
	c.spare = append(c.spare, j)
	c.pump()
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
	var changed []*alloc.Placement
	for _, fid := range c.al.FIDs() {
		if !affected[fid] {
			continue
		}
		if pl, ok := c.al.PlacementFor(fid); ok {
			changed = append(changed, pl)
		}
	}
	return changed
}

func (c *Controller) respondFailure(fid uint16) {
	resp := &packet.Active{
		Header:    packet.ActiveHeader{FID: fid, Flags: packet.FlagFromSwch | packet.FlagFailed},
		AllocResp: &packet.AllocResponse{},
	}
	resp.Header.SetType(packet.TypeAllocResp)
	_ = c.sw.SendToHost(c.clients[fid], resp)
}

// responseFor frames a placement's wire response (alloc.Placement.ToResponse)
// with the grant epoch the client must echo on its capsules. Reallocation
// notices go out before the table update lands, so they carry the epoch the
// pending install will assign. The frame is the controller's scratch, valid
// until the next call.
func (c *Controller) responseFor(pl *alloc.Placement, realloc bool) *packet.Active {
	epoch := c.rt.Epoch(pl.FID)
	if realloc {
		epoch = c.rt.NextEpoch(pl.FID)
	}
	c.respAlloc = *pl.ToResponse(epoch)
	a := &c.resp
	*a = packet.Active{
		Header:    packet.ActiveHeader{FID: pl.FID, Flags: packet.FlagFromSwch},
		AllocResp: &c.respAlloc,
	}
	if realloc {
		a.Header.Flags |= packet.FlagRealloc
	}
	a.Header.SetType(packet.TypeAllocResp)
	return a
}

// allocate runs the kind's allocator work and hands the job to the snapshot
// window — an admission after its compute time — or straight to its answer.
func (c *Controller) allocate(j *job) {
	fid := j.rec.FID
	switch j.rec.Kind {
	case JobAdmit:
		c.clients[fid] = j.mac
		c.admit(j)
		return
	case JobRelease, JobEvict:
		if j.rec.Kind == JobRelease {
			c.clients[fid] = j.mac
		}
		changed, err := c.al.Release(fid)
		if err != nil {
			// Unknown to the books: a stateless service is still torn down.
			if j.rec.Kind == JobRelease && !c.rt.Admitted(fid) {
				j.rec.Failed = true
				c.conclude(j, true)
				return
			}
			changed = nil
		}
		j.rec.TableOps += c.rt.RemoveGrant(fid)
		if j.rec.Kind == JobEvict {
			// The client restarts its lifecycle from Idle.
			c.GuardEvictions++
			c.notify(fid, packet.FlagFailed|packet.FlagEvicted)
		}
		j.moved = changed
	case JobSweep, JobDefrag:
		pass := c.sweep
		if j.rec.Kind == JobDefrag {
			pass = c.defrag
		}
		if !pass(j) {
			// A sweep that fenced nothing still scanned; a pass that moved
			// nobody did nothing at all.
			c.conclude(j, j.rec.Kind == JobSweep)
			return
		}
	}
	c.next(j, phaseOpen, atOnce)
}

// admit runs the allocation for an admission request.
func (c *Controller) admit(j *job) {
	fid := j.rec.FID
	// Retransmitted requests are answered idempotently with the existing
	// placement (allocation requests are retried over a lossy data plane).
	if pl, ok := c.al.PlacementFor(fid); ok {
		_ = c.sw.SendToHost(c.clients[fid], c.responseFor(pl, false))
		c.conclude(j, false)
		return
	}
	// A FID resident in recovered form is a pre-crash tenant whose client
	// is re-negotiating: Readmit rebuilds its full allocation state from the
	// request's constraints and the installed tables, answering with the
	// installed placement when the tables still match (and re-placing it
	// when they don't).
	allocate := c.al.Allocate
	if c.al.Recovered(fid) {
		j.rec.Kind, allocate = JobReadmit, c.al.Readmit
	}
	cons, err := alloc.FromRequest(&j.req)
	if err != nil {
		j.rec.Failed = true
		c.next(j, phaseFinish, atOnce)
		return
	}
	cons.Name = "fid"

	// Stateless services (no memory accesses) bypass the allocator: admit
	// the FID and answer after the compute time and its one table write.
	if len(cons.Accesses) == 0 && j.rec.Kind == JobAdmit {
		c.rt.AdmitStateless(fid)
		c.guard.Reinstate(fid)
		j.rec.TableOps = 1
		j.rec.TableTime = tableOpCost
		c.next(j, phaseFinish, computeBase+j.rec.TableTime)
		return
	}

	res, err := allocate(fid, cons)
	j.rec.Compute = computeBase
	if res != nil {
		j.rec.Compute += time.Duration(res.MutantsTotal) * computePerMut
	}
	if err != nil || res.Failed {
		j.rec.Failed = true
		c.next(j, phaseFinish, j.rec.Compute)
		return
	}
	if j.rec.Kind == JobReadmit {
		c.Readmissions++
	}
	j.grant, j.moved = res.New, res.Reallocated
	c.next(j, phaseOpen, j.rec.Compute)
}

// open deactivates the moved tenants, sends each client its realloc notice
// and opens the snapshot window, which closes when the last ack arrives.
// Halfway through it, still-pending clients get their notice re-sent (the
// first copy crosses a lossy data plane); at its end it times out.
func (c *Controller) open(j *job) {
	j.rec.Reallocated = len(j.moved)
	for _, pl := range j.moved {
		c.rt.Deactivate(pl.FID)
		j.rec.TableOps++
		if mac, ok := c.clients[pl.FID]; ok {
			_ = c.sw.SendToHost(mac, c.responseFor(pl, true))
			j.pending = append(j.pending, pl.FID)
		}
	}
	if len(j.pending) == 0 {
		c.next(j, phaseInstall, atOnce)
		return
	}
	c.next(j, phaseInstall, snapshotTimeout/2)
	c.next(j, phaseInstall, snapshotTimeout)
}

// install closes the snapshot window — or, at half-window, re-sends the
// laggards' notices and keeps it open — then installs the moved tenants'
// grants, restoring any migrated register image, and the newcomer's.
func (c *Controller) install(j *job) {
	if len(j.pending) > 0 {
		if !j.escalated {
			j.escalated = true
			for _, pl := range j.moved {
				if slices.Contains(j.pending, pl.FID) {
					_ = c.sw.SendToHost(c.clients[pl.FID], c.responseFor(pl, true))
					c.SnapshotEscalations++
				}
			}
			return
		}
		c.SnapshotTimeouts++
	}
	// The window opened once the compute time had passed.
	j.rec.SnapshotWait = c.eng.Now() - j.rec.Start - j.rec.Compute
	ops := j.rec.TableOps
	for _, pl := range j.moved {
		app, _ := c.al.App(pl.FID)
		c.grant.Set(pl, app.Cons)
		n, err := c.rt.InstallGrant(c.grant)
		ops += n
		if err != nil {
			// TCAM exhaustion mid-update: surface as failure for the
			// newcomer but keep existing apps running.
			continue
		}
		for stage, words := range j.images[pl.FID] {
			if n, err := c.rt.RestoreRegion(pl.FID, stage, words); err == nil {
				c.DefragWordsRestored += uint64(n)
			}
		}
	}
	if j.grant != nil {
		app, _ := c.al.App(j.grant.FID)
		c.grant.Set(j.grant, app.Cons)
		n, err := c.rt.InstallGrant(c.grant)
		ops += n
		j.rec.Failed = err != nil
	}
	j.rec.TableOps = ops
	j.rec.TableTime = time.Duration(ops) * tableOpCost
	c.next(j, phaseFinish, j.rec.TableTime)
}

// finish reactivates the moved tenants, answers the job's own client and
// records the job.
func (c *Controller) finish(j *job) {
	for _, pl := range j.moved {
		c.rt.Reactivate(pl.FID)
		c.notify(pl.FID, packet.FlagDone|packet.FlagRealloc)
	}
	fid := j.rec.FID
	switch {
	case j.rec.Failed:
		if j.grant != nil {
			// Roll the allocation back so state stays consistent.
			_, _ = c.al.Release(fid)
		}
		c.respondFailure(fid)
	case j.grant != nil:
		// A readmitted tenant may still be deactivated from the pre-crash
		// reallocation window; clear it before answering.
		if c.rt.Quarantined(fid) {
			c.rt.Reactivate(fid)
		}
		// A fresh grant wipes any guard history: re-admission after an
		// eviction starts a clean escalation ladder.
		c.guard.Reinstate(fid)
		_ = c.sw.SendToHost(c.clients[fid], c.responseFor(j.grant, false))
	case j.rec.Kind == JobRelease:
		c.notify(fid, packet.FlagDone|packet.FlagRelease)
		delete(c.clients, fid)
	case j.rec.Kind == JobAdmit: // a stateless service, admitted by allocate
		_ = c.sw.SendToHost(c.clients[fid], c.responseFor(&alloc.Placement{FID: fid}, false))
	}
	c.conclude(j, true)
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
	c.enqueue(c.newJob(JobSweep, 0))
}

// sweep runs one sweep-and-repair pass, handing j the placements it moved;
// it reports false when it found nothing to fence.
func (c *Controller) sweep(j *job) bool {
	// One corrupted word condemns its whole block; Fence decides the rest.
	bw := c.al.Config().BlockWords
	bad := map[int][]alloc.BlockRange{}
	for _, rep := range c.rt.SweepCorruption() {
		c.rt.ScrubWord(rep.Stage, rep.Addr)
		block := int(rep.Addr) / bw
		bad[rep.Stage] = append(bad[rep.Stage], alloc.BlockRange{Lo: block, Hi: block + 1})
	}
	f := c.al.Fence(bad)
	if f.Fenced == 0 {
		return false
	}
	c.QuarantinedBlockCount += uint64(f.Fenced)
	c.Evacuations += uint64(f.Evacuated)
	// An evicted tenant cannot be re-placed around the damage: its client
	// is told and restarts its lifecycle. Everyone whose regions moved goes
	// through the reallocation protocol with their final placement.
	for _, fid := range f.Evicted {
		j.rec.TableOps += c.rt.RemoveGrant(fid)
		c.respondFailure(fid)
	}
	j.moved = f.Moved
	return true
}
