package testbed

import (
	"math"
	"strings"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/isa"
	"activermt/internal/packet"
)

// victimWorkload populates the cache with 16 hot objects out of 64 and
// queries all 64, returning the hit rate. Fully deterministic: same testbed
// state, same rate.
func victimWorkload(t *testing.T, tb *Testbed, srv *apps.KVServer, cache *apps.Cache) float64 {
	t.Helper()
	var hot []apps.KVMsg
	for i := 0; i < 64; i++ {
		k0, k1, v := uint32(0xA000+i), uint32(0xB000+i), uint32(0xC000+i)
		srv.Store[apps.KeyOf(k0, k1)] = v
		if i < 16 {
			hot = append(hot, apps.KVMsg{Key0: k0, Key1: k1, Value: v})
		}
	}
	cache.SetHotObjects(hot)
	cache.Populate()
	tb.RunFor(10 * time.Millisecond)

	cache.ResetStats()
	for i := 0; i < 64; i++ {
		cache.Get(uint32(0xA000+i), uint32(0xB000+i))
		tb.RunFor(time.Millisecond)
	}
	tb.RunFor(20 * time.Millisecond)
	return cache.HitRate()
}

// snapshotVictim reads every word of the victim's installed regions.
func snapshotVictim(t *testing.T, tb *Testbed, fid uint16) map[int][]uint32 {
	t.Helper()
	out := map[int][]uint32{}
	for stage := range tb.RT.InstalledRegions(fid) {
		words, _, err := tb.RT.Snapshot(fid, stage)
		if err != nil {
			t.Fatal(err)
		}
		out[stage] = words
	}
	return out
}

// setupVictim builds a testbed with a KV server and one operational cache
// tenant (the victim, FID 1).
func setupVictim(t *testing.T) (*Testbed, *apps.KVServer, *apps.Cache, *client.Client) {
	t.Helper()
	tb := newBed(t)
	srv := tb.AddKVServer()
	cache, cl := tb.AddCache(1, srv)
	if err := cl.RequestAndWait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return tb, srv, cache, cl
}

// TestAdversaryQuarantinedThenEvicted is the acceptance test for the
// adversarial-tenant hardening: a legitimately admitted attacker that scans
// the victim's memory walks the escalation ladder to quarantine and then
// eviction, writes zero victim words along the way, and the victim's hit
// rate matches the attacker-free baseline at the same seed.
func TestAdversaryQuarantinedThenEvicted(t *testing.T) {
	// Attacker-free baseline.
	tbBase, srvBase, cacheBase, _ := setupVictim(t)
	baseRate := victimWorkload(t, tbBase, srvBase, cacheBase)
	if baseRate <= 0 {
		t.Fatalf("baseline hit rate = %v", baseRate)
	}

	// Attack run at the same seed: victim plus an admitted attacker tenant.
	tb, srv, cache, victimCl := setupVictim(t)
	_, attCl := tb.AddCache(2, srv)
	evictedNotices := 0
	attSvc := attCl.Service()
	attSvc.OnEvicted = func(c *client.Client) { evictedNotices++ }
	if err := attCl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if victimCl.State() != client.Operational {
		if err := tb.WaitOperational(victimCl, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// The attacker goes rogue: its protocol shim's credentials feed a raw
	// adversary endpoint on a separate port.
	_, advMAC, _ := tb.NewHostID()
	adv := chaos.NewAdversary(tb.Eng, advMAC, tb.Switch.MAC())
	tb.AddHost(adv)
	adv.Arm(2, attCl.Epoch())

	// Phase 0: unauthenticated garbage — malformed capsules and epoch
	// forgeries under the VICTIM's identity. All of it must be charged to
	// the adversary's ingress port; the victim's ledger must stay clean.
	for i := 0; i < 5; i++ {
		adv.SendMalformed()
		adv.SendForged(1, uint8(100+i)) // epochs far from the victim's
		adv.SendTruncated()
		tb.RunFor(time.Millisecond)
	}
	if led := tb.Guard.Tenant(1); led != nil && led.Total() != 0 {
		t.Fatalf("victim ledger charged by forgery: %d violations", led.Total())
	}
	if tb.Guard.PortViolations() == 0 {
		t.Fatal("unauthenticated violations did not land on the port ledger")
	}

	// The victim serves its workload while the attack continues underneath.
	rate := victimWorkload(t, tb, srv, cache)
	pre := snapshotVictim(t, tb, 1)

	// Phase 1: authenticated out-of-bounds scan of the victim's regions
	// until the guard quarantines the attacker.
	type probe struct {
		stage int
		addr  uint32
	}
	var probes []probe
	for stage, reg := range tb.RT.InstalledRegions(1) {
		for w := reg.Lo; w < reg.Hi; w += 7 {
			probes = append(probes, probe{stage, w})
		}
	}
	if len(probes) == 0 {
		t.Fatal("victim has no installed regions to probe")
	}
	start := tb.Eng.Now()
	i := 0
	for tb.Guard.Tenant(2) == nil || tb.Guard.Tenant(2).State() < guard.Quarantined {
		if i > 400 {
			t.Fatalf("attacker not quarantined after %d probes (state %v)", i, tb.Guard.Tenant(2).State())
		}
		p := probes[i%len(probes)]
		adv.SendOOBWrite(p.stage, p.addr, 0xBADBAD)
		tb.RunFor(time.Millisecond)
		i++
	}
	quarantineDelay := tb.Eng.Now() - start
	if quarantineDelay > guard.EscalationWindow {
		t.Errorf("quarantine took %v, beyond the %v escalation window", quarantineDelay, guard.EscalationWindow)
	}
	if tb.Ctrl.GuardQuarantines != 1 {
		t.Errorf("controller quarantines = %d, want 1", tb.Ctrl.GuardQuarantines)
	}
	if !tb.RT.Quarantined(2) {
		t.Error("attacker FID not deactivated in the runtime")
	}

	// Zero victim words written: the attacker is still resident (eviction
	// has not reallocated anyone), so the regions are directly comparable.
	post := snapshotVictim(t, tb, 1)
	for stage, before := range pre {
		after, ok := post[stage]
		if !ok || len(after) != len(before) {
			t.Fatalf("victim region moved during quarantine phase (stage %d)", stage)
		}
		for w := range before {
			if before[w] != after[w] {
				t.Fatalf("attacker wrote victim word: stage %d off %d %#x -> %#x", stage, w, before[w], after[w])
			}
		}
	}
	if tb.RT.Faults == 0 {
		t.Error("no protection faults recorded for the scan")
	}

	// Phase 2: the attacker keeps sending through quarantine; the guard
	// escalates to eviction and the controller reclaims the grant.
	for j := 0; tb.Guard.Tenant(2).State() < guard.Evicted; j++ {
		if j > 100 {
			t.Fatalf("attacker not evicted (state %v)", tb.Guard.Tenant(2).State())
		}
		p := probes[j%len(probes)]
		adv.SendOOBWrite(p.stage, p.addr, 0xBADBAD)
		tb.RunFor(time.Millisecond)
	}
	tb.RunFor(3 * time.Second) // eviction + neighbor reallocation settle

	if tb.Ctrl.GuardEvictions != 1 {
		t.Errorf("controller evictions = %d, want 1", tb.Ctrl.GuardEvictions)
	}
	if tb.RT.Admitted(2) {
		t.Error("evicted attacker still admitted")
	}
	if tb.Ctrl.Allocator().NumApps() != 1 {
		t.Errorf("resident apps = %d, want 1 (victim only)", tb.Ctrl.Allocator().NumApps())
	}
	if attCl.Evictions != 1 || evictedNotices != 1 {
		t.Errorf("attacker client: Evictions=%d notices=%d, want 1/1", attCl.Evictions, evictedNotices)
	}
	if attCl.State() != client.Idle {
		t.Errorf("attacker client state = %v, want Idle", attCl.State())
	}
	// The ledger walked the full arc; the history is the audit record.
	hist := tb.Guard.Tenant(2).History
	sawQ, sawE := false, false
	for _, tr := range hist {
		if tr.To == guard.Quarantined {
			sawQ = true
		}
		if tr.To == guard.Evicted {
			sawE = true
		}
	}
	if !sawQ || !sawE {
		t.Errorf("history missing quarantine/evict transitions: %v", hist)
	}

	// The victim rode through: same hit rate as the attacker-free baseline.
	if math.Abs(rate-baseRate) > 0.05*baseRate {
		t.Errorf("victim hit rate %v vs baseline %v (>5%% delta)", rate, baseRate)
	}
	if victimCl.State() != client.Operational {
		t.Errorf("victim state = %v after attack", victimCl.State())
	}
	// And its data integrity survives eviction-driven reallocation: the
	// cache re-populates and the hot set still hits.
	cache.ResetStats()
	for i := 0; i < 16; i++ {
		cache.Get(uint32(0xA000+i), uint32(0xB000+i))
		tb.RunFor(time.Millisecond)
	}
	tb.RunFor(20 * time.Millisecond)
	if cache.HitRate() < 0.5 {
		t.Errorf("post-eviction hot-set hit rate = %v", cache.HitRate())
	}

	// No isolation invariant was violated anywhere in the pipeline.
	if vs := tb.Check(); len(vs) != 0 {
		t.Errorf("check after attack: %v", vs)
	}
}

// TestEvictedTenantCanReadmit checks the recovery arc: an evicted tenant
// whose service requests a fresh allocation 500 ms after the eviction
// notice is re-admitted, the controller reinstates its ledger, and the new
// grant epoch authenticates.
func TestEvictedTenantCanReadmit(t *testing.T) {
	tb, srv, _, _ := setupVictim(t)
	_, attCl := tb.AddCache(2, srv)
	attCl.Service().OnEvicted = func(c *client.Client) {
		tb.Eng.Schedule(500*time.Millisecond, func() { _ = c.RequestAllocation() })
	}
	if err := attCl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	oldEpoch := attCl.Epoch()

	// Drive the tenant to eviction via direct guard violations.
	for i := 0; tb.Guard.Tenant(2) == nil || tb.Guard.Tenant(2).State() < guard.Evicted; i++ {
		if i > 100 {
			t.Fatal("not evicted")
		}
		tb.Guard.MemFault(2)
	}
	tb.RunFor(3 * time.Second) // eviction, then scheduled re-admission

	if attCl.State() != client.Operational {
		t.Fatalf("evicted tenant did not re-admit: state %v", attCl.State())
	}
	if attCl.Epoch() == oldEpoch || attCl.Epoch() == 0 {
		t.Errorf("re-admitted epoch = %d, want fresh nonzero (old %d)", attCl.Epoch(), oldEpoch)
	}
	led := tb.Guard.Tenant(2)
	if led.State() != guard.Healthy {
		t.Errorf("ledger after re-admission = %v, want Healthy", led.State())
	}
	last := led.History[len(led.History)-1]
	if last.Trigger != guard.KindReadmitted {
		t.Errorf("last transition = %v, want readmitted", last)
	}
	if tb.RT.Epoch(2) != attCl.Epoch() {
		t.Errorf("client epoch %d != runtime epoch %d", attCl.Epoch(), tb.RT.Epoch(2))
	}
}

// TestAdversarialTenantScenario runs the library's canned attack arc and
// checks the deterministic trace plus the end state: the attacker at least
// quarantined, the victim untouched.
func TestAdversarialTenantScenario(t *testing.T) {
	tb, srv, _, _ := setupVictim(t)
	_, attCl := tb.AddCache(2, srv)
	if err := attCl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	_, advMAC, _ := tb.NewHostID()
	adv := chaos.NewAdversary(tb.Eng, advMAC, tb.Switch.MAC())
	tb.AddHost(adv)
	adv.Arm(2, attCl.Epoch())

	sc := chaos.AdversarialTenant(adv, 1, 42)
	if err := sc.Install(tb.System()); err != nil {
		t.Fatal(err)
	}
	tb.RunFor(2 * time.Second)

	if got := len(sc.Trace()); got != 5 {
		t.Fatalf("scenario fired %d/5 events:\n%s", got, chaos.TraceString(sc.Trace()))
	}
	led := tb.Guard.Tenant(2)
	if led == nil || led.State() < guard.Quarantined {
		t.Fatalf("attacker state = %v, want >= Quarantined", led)
	}
	if vl := tb.Guard.Tenant(1); vl != nil && vl.Total() != 0 {
		t.Errorf("victim charged %d violations", vl.Total())
	}
	if tb.Guard.PortViolations() == 0 {
		t.Error("no port-attributed violations from the unauthenticated phases")
	}
	if adv.Sent == 0 {
		t.Error("adversary sent nothing")
	}
}

// TestEvictionSnapshotOrdering is the commit-ordering test for the control
// and data planes: a tenant evicted in the middle of a packet burst must
// never have a packet served by a stale grant. Every capsule records the
// table generation it executed under and whether the live tables then held
// the tenant's region; a capsule may write its word if and only if they did
// — and once the eviction has removed the region, no later capsule writes
// again.
func TestEvictionSnapshotOrdering(t *testing.T) {
	tb, srv, _, victimCl := setupVictim(t)
	_, attCl := tb.AddCache(2, srv)
	if err := attCl.RequestAndWait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if victimCl.State() != client.Operational {
		if err := tb.WaitOperational(victimCl, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	dev := tb.RT.Device()
	regions := tb.RT.InstalledRegions(2)
	if len(regions) == 0 {
		t.Fatal("tenant 2 has no installed regions")
	}
	stage := -1
	var lo uint32
	for s, reg := range regions {
		if stage == -1 || s < stage {
			stage, lo = s, reg.Lo
		}
	}
	addr := lo + 3
	if _, ok := dev.Stage(stage).Prot.Region(2); !ok {
		t.Fatal("tables lack tenant 2's region pre-eviction")
	}
	genBefore := dev.Gen()

	// A raw write capsule landing MEM_WRITE exactly on `stage`: MAR and MBR
	// arrive via FlagPreload (MAR=args[2]=addr, MBR=args[0]=value).
	writer := isa.MustAssemble("evict-writer",
		strings.Repeat("NOP\n", stage)+"MEM_WRITE\nRETURN")
	word := func() uint32 { return dev.Stage(stage).Registers.Read(addr) }

	type obs struct {
		gen      uint64 // table generation the capsule executed under
		tableHas bool   // the tables then still held tenant 2's region
		wrote    bool
	}
	var burst []obs
	sendAt := func(at time.Duration, v uint32) {
		tb.Eng.At(at, func() {
			before := word()
			a := &packet.Active{
				Header:  packet.ActiveHeader{FID: 2, Flags: packet.FlagPreload},
				Args:    [4]uint32{v, 0, addr, 0},
				Program: writer,
			}
			a.Header.SetType(packet.TypeProgram)
			gen := dev.Gen()
			_, tableHas := dev.Stage(stage).Prot.Region(2)
			tb.RT.ExecuteProgram(a)
			burst = append(burst, obs{gen: gen, tableHas: tableHas, wrote: word() != before})
		})
	}
	base := tb.Eng.Now()
	for i := 0; i < 12; i++ {
		sendAt(base+time.Duration(i+1)*time.Millisecond, uint32(0x100+i))
	}
	// The eviction lands mid-burst, between capsules 6 and 7.
	tb.Eng.At(base+6500*time.Microsecond, func() { tb.Ctrl.GuardEvict(2) })
	tb.RunFor(3 * time.Second)

	if len(burst) != 12 {
		t.Fatalf("burst ran %d capsules, want 12", len(burst))
	}
	if !tb.RT.Revoked(2) {
		t.Fatal("tenant 2 not revoked after eviction")
	}
	if gen := dev.Gen(); gen <= genBefore {
		t.Fatalf("table generation did not advance across eviction: %d -> %d", genBefore, gen)
	}
	if _, ok := dev.Stage(stage).Prot.Region(2); ok {
		t.Fatal("tables still hold the evicted tenant's region")
	}

	pre, post, retracted := 0, 0, false
	for i, o := range burst {
		// The ordering invariant: a capsule writes iff the tables it executed
		// against still held the tenant. A write without the region would be
		// a stale grant serving a packet; a refusal with the region would be
		// the refusal racing ahead of the commit.
		if o.wrote != o.tableHas {
			t.Fatalf("capsule %d: wrote=%v but tables (gen %d) have region=%v", i, o.wrote, o.gen, o.tableHas)
		}
		if retracted && o.tableHas {
			t.Fatalf("capsule %d executed under a resurrected region (gen %d)", i, o.gen)
		}
		if !o.tableHas {
			retracted = true
			post++
		} else {
			pre++
		}
	}
	if pre < 3 || post < 3 {
		t.Fatalf("eviction did not land mid-burst: %d pre, %d post", pre, post)
	}
	if got, want := word(), uint32(0x100+pre-1); got != want {
		t.Fatalf("final word %#x, want last pre-eviction value %#x", got, want)
	}
	if victimCl.State() != client.Operational {
		t.Error("victim knocked out of Operational by the neighbor's eviction")
	}
}
