package soak

import (
	"fmt"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
)

// The cache workload and its staleness oracle.
//
// Values are drawn from one global monotone counter, so each key's write
// sequence is strictly increasing. A write's value becomes the key's FLOOR
// at the moment its commit is acknowledged (cc.OnWriteAck) — the protocol's
// linearization point. Every read captures the floor at issue time; if the
// response carries a smaller value, some replica served state the protocol
// had already superseded before the read began. That is the no-stale-read
// invariant, checked on every single completed read.

const (
	numKeys     = 24          // hot keyspace size
	readRate    = 200.0       // cache reads per virtual second
	writeRate   = 20.0        // cache writes per virtual second
	readTimeout = time.Second // reads older than this count as lost

	tenantRate      = 1.0              // tenant arrivals per virtual second
	tenantLife      = 20 * time.Second // mean tenant lifetime
	tenantDemandMin = 20               // blocks per access, lower bound
	tenantDemandMax = 120              // blocks per access, upper bound
)

type keyState struct {
	k0, k1 uint32
	floor  uint32 // largest acknowledged write value
	busy   bool   // a write is in flight (one writer per key)
}

type readState struct {
	key   int
	at    time.Duration // issue time
	floor uint32        // key floor at issue
}

type putState struct {
	key   int
	value uint32
}

func (h *harness) warmKeys() error {
	h.keys = make([]keyState, numKeys)
	objs := make([]apps.KVMsg, 0, numKeys)
	for i := range h.keys {
		h.nextVal++
		h.keys[i] = keyState{k0: uint32(0x5000 + i), k1: uint32(0x9000 + i), floor: h.nextVal}
		h.srv.Store[apps.KeyOf(h.keys[i].k0, h.keys[i].k1)] = h.nextVal
		objs = append(objs, apps.KVMsg{Key0: h.keys[i].k0, Key1: h.keys[i].k1, Value: h.nextVal})
	}
	if err := h.cc.Warm(0, objs); err != nil {
		return err
	}
	h.f.RunFor(100 * time.Millisecond)
	return nil
}

// startPumps schedules the self-rescheduling read and write generators on
// the engine. Issuing a Get/Put only sends frames and schedules timers, so
// it is safe inside engine callbacks; the control-plane work stays in the
// driver loop.
func (h *harness) startPumps() {
	eng := h.f.Eng
	end := eng.Now() + h.cfg.Duration
	readGap := time.Duration(float64(time.Second) / readRate)
	writeGap := time.Duration(float64(time.Second) / writeRate)

	var readPump, writePump func()
	readPump = func() {
		if eng.Now() >= end || h.failed != nil {
			return
		}
		h.issueRead()
		eng.Schedule(readGap, readPump)
	}
	writePump = func() {
		if eng.Now() >= end || h.failed != nil {
			return
		}
		h.issueWrite()
		eng.Schedule(writeGap, writePump)
	}
	eng.Schedule(readGap, readPump)
	eng.Schedule(writeGap, writePump)
}

func (h *harness) issueRead() {
	i := h.rng.Intn(len(h.keys))
	k := &h.keys[i]
	leaf := h.rng.Intn(2) // the two cache frontends
	seq, err := h.cc.Get(leaf, k.k0, k.k1)
	if err != nil {
		return
	}
	h.pendingReads[seq] = readState{key: i, at: h.f.Eng.Now(), floor: k.floor}
}

func (h *harness) issueWrite() {
	// One writer per key: concurrent writers to one key would race at the
	// home and server with no order the oracle could assert.
	for try := 0; try < 4; try++ {
		i := h.rng.Intn(len(h.keys))
		k := &h.keys[i]
		if k.busy {
			continue
		}
		h.nextVal++
		leaf := h.rng.Intn(2)
		seq, err := h.cc.Put(leaf, k.k0, k.k1, h.nextVal)
		if err != nil {
			return
		}
		k.busy = true
		h.pendingPuts[seq] = putState{key: i, value: h.nextVal}
		return
	}
}

func (h *harness) onWriteAck(leaf int, seq, value uint32) {
	p, ok := h.pendingPuts[seq]
	if !ok {
		return
	}
	delete(h.pendingPuts, seq)
	k := &h.keys[p.key]
	k.busy = false
	if value > k.floor {
		k.floor = value
	}
	h.res.Acked++
}

func (h *harness) onReadResponse(leaf int, seq, value uint32, hit bool) {
	rd, ok := h.pendingReads[seq]
	if !ok {
		return // expired as lost; a very late response proves nothing
	}
	delete(h.pendingReads, seq)
	h.res.ReadsDone++
	if hit {
		h.res.Hits++
	}
	h.hist.Observe(uint64(h.f.Eng.Now() - rd.at))
	if value < rd.floor {
		now := h.f.Eng.Now()
		k := h.keys[rd.key]
		h.failed = &Violation{
			At: now, Epoch: h.res.Epochs, Row: "R1a",
			Detail: fmt.Sprintf("leaf %d read key (%#x,%#x) = %d, but %d was acknowledged before the read was issued (hit=%v, consistent=%v, degraded=%v, home=%d)",
				leaf, k.k0, k.k1, value, rd.floor, hit, h.cc.SetConsistent(), h.cc.Degraded(), h.cc.Home().Index),
			Trace: h.ring.dump(h.reg),
		}
	}
}

// expireReads counts reads chaos ate. A lost read is availability damage,
// not a safety violation — it is reported, not failed on.
func (h *harness) expireReads() {
	cut := h.f.Eng.Now() - readTimeout
	for seq, rd := range h.pendingReads {
		if rd.at <= cut {
			delete(h.pendingReads, seq)
			h.res.Lost++
		}
	}
}

// liveTenant is one admitted tenant: one client under one FID, admitted on
// its own leaf's switch, and its scheduled departure.
type liveTenant struct {
	cl   *client.Client
	dies time.Duration
}

// churnTenants advances the tenant population: departures past their
// lifetime, then arrivals at tenantRate. Each arrival asks its own leaf's
// switch for its demand per access (inelastic), halving the ask on each
// refusal; a switch that admits nothing refuses the tenant.
func (h *harness) churnTenants() {
	now := h.f.Eng.Now()

	// Departures first, so arrivals can reuse the freed capacity and FIDs.
	kept := h.tenants[:0]
	for _, lt := range h.tenants {
		if lt.dies > now {
			kept = append(kept, lt)
			continue
		}
		_ = lt.cl.Release()
		h.fidFree = append(h.fidFree, lt.cl.FID())
		h.res.TenantsReleased++
	}
	h.tenants = kept

	h.arrivalCr += tenantRate * epoch.Seconds()
	for ; h.arrivalCr >= 1; h.arrivalCr-- {
		fid, ok := h.takeFID()
		if !ok {
			break
		}
		leaf := h.rng.Intn(numLeaves)
		demand := tenantDemandMin + h.rng.Intn(tenantDemandMax-tenantDemandMin+1)
		cl, won, err := h.fc.Admit(h.f.Leaves[leaf], leaf, fid, demand, 1, apps.CoherentCacheService)
		if err != nil || won == 0 {
			h.fidFree = append(h.fidFree, fid)
			continue
		}
		h.res.TenantsPlaced++
		life := time.Duration(float64(tenantLife) * (0.5 + h.rng.Float64()))
		h.tenants = append(h.tenants, &liveTenant{cl: cl, dies: now + life})
	}
}

func (h *harness) takeFID() (uint16, bool) {
	if n := len(h.fidFree); n > 0 {
		fid := h.fidFree[n-1]
		h.fidFree = h.fidFree[:n-1]
		return fid, true
	}
	if h.nextFID >= tenantFIDMax {
		return 0, false
	}
	h.nextFID++
	return h.nextFID - 1, true
}

// maybeRepair runs the replica-set verifier occasionally; a diverged set is
// re-placed under a fresh FID. Skipped while degraded — repair re-places
// through the fabric, and a half-dead fabric would turn a clean repair into
// a partial one.
func (h *harness) maybeRepair() {
	if h.res.Epochs%5 != 0 || h.cc.Degraded() || h.cc.SetConsistent() {
		return
	}
	if h.repairFID >= tenantFIDBase {
		return // repair FID space exhausted; soak keeps running un-repaired
	}
	if _, err := h.cc.VerifyAndRepair(h.repairFID); err == nil {
		h.ring.note(h.f.Eng.Now(), "cache repaired under fid %d", h.repairFID)
	}
	h.repairFID++
}
