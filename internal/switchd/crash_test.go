package switchd_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/switchd"
	"activermt/internal/testbed"
)

// crashCase is a population and the job to crash: start queues it on a
// freshly built testbed.
type crashCase struct {
	name  string
	build func(t *testing.T) (tb *testbed.Testbed, cls []*client.Client, start func())
	kind  switchd.JobKind
	fid   uint16
	// phases are the ones the job waits in, in order. A defrag pass has no
	// compute time, so it never waits in PhaseOpen.
	phases []switchd.Phase
	// loss says what the population lost across the crash, which the
	// invariants allow and the test logs (docs/control.md, Crash recovery).
	loss func(tb *testbed.Testbed, start time.Duration) string
}

// faultTolerant arms a client's escapes from a dead controller: retried
// requests, and a bounded snapshot window.
func faultTolerant(cl *client.Client) {
	cl.RetryAfter = 50 * time.Millisecond
	cl.ReallocTimeout = 250 * time.Millisecond
}

func newBed(t *testing.T) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// cacheCase: three caches fill the cache-reachable stages, and the fourth
// admission reallocates a neighbour.
func cacheCase() crashCase {
	return crashCase{name: "4th cache admission", kind: switchd.JobAdmit, fid: 4,
		phases: []switchd.Phase{switchd.PhaseOpen, switchd.PhaseInstall, switchd.PhaseFinish},
		build: func(t *testing.T) (*testbed.Testbed, []*client.Client, func()) {
			tb := newBed(t)
			srv := tb.AddKVServer()
			var cls []*client.Client
			for fid := uint16(1); fid <= 4; fid++ {
				_, cl := tb.AddCache(fid, srv)
				faultTolerant(cl)
				cls = append(cls, cl)
				if fid < 4 {
					if err := cl.RequestAndWait(10 * time.Second); err != nil {
						t.Fatal(err)
					}
				}
			}
			return tb, cls, func() { _ = cls[3].RequestAllocation() }
		},
		loss: func(tb *testbed.Testbed, start time.Duration) string {
			for _, rec := range tb.Ctrl.Records {
				if rec.FID == 4 && rec.Failed {
					return fmt.Sprintf("the newcomer was refused %v after its request", rec.End-start)
				}
			}
			return "nothing"
		},
	}
}

// defragCase: the defragBed population of internal/testbed — 30 inelastic
// memsync tenants, a pattern in the 18 survivors, the first 12 released —
// and one defrag pass migrating up to 4 survivors down into the holes.
func defragCase() crashCase {
	const n, nRelease, demand, words = 30, 12, 16, 4
	drivers := map[uint16]*apps.MemSync{}
	return crashCase{name: "defrag migration", kind: switchd.JobDefrag,
		phases: []switchd.Phase{switchd.PhaseInstall, switchd.PhaseFinish},
		build: func(t *testing.T) (*testbed.Testbed, []*client.Client, func()) {
			tb := newBed(t)
			clear(drivers)
			var cls []*client.Client
			for fid := uint16(1); fid <= n; fid++ {
				ms, cl := tb.AddMemSync(fid, demand)
				if err := cl.RequestAndWait(10 * time.Second); err != nil {
					t.Fatalf("fid %d: %v", fid, err)
				}
				drivers[fid] = ms
				cls = append(cls, cl)
			}
			for fid := uint16(nRelease + 1); fid <= n; fid++ {
				for i := 0; i < words; i++ {
					drivers[fid].Write(uint32(i), uint32(fid)<<16|uint32(i), nil)
				}
			}
			tb.RunFor(50 * time.Millisecond)
			for fid := uint16(1); fid <= nRelease; fid++ {
				if err := cls[fid-1].Release(); err != nil {
					t.Fatal(err)
				}
				delete(drivers, fid)
			}
			tb.RunFor(time.Second)
			for _, cl := range cls {
				faultTolerant(cl)
			}
			return tb, cls, tb.Ctrl.Defragment
		},
		loss: func(tb *testbed.Testbed, _ time.Duration) string {
			zeroed, tenants := 0, map[uint16]bool{}
			for fid, ms := range drivers {
				for i := 0; i < words; i++ {
					ms.Read(uint32(i), func(v uint32) {
						if v == 0 {
							zeroed++
							tenants[fid] = true
						}
					})
				}
			}
			tb.RunFor(100 * time.Millisecond)
			return fmt.Sprintf("%d pattern words read back zero, across %d of the %d migrated tenants",
				zeroed, len(tenants), tb.Ctrl.DefragMigrations)
		},
	}
}

// stepJob runs the engine one event at a time until the case's job is in
// progress in a phase stop accepts, or has come and gone. It returns the
// phases the job was seen waiting in, in order.
func stepJob(tb *testbed.Testbed, cc crashCase, stop func(switchd.Phase) bool) (seen []switchd.Phase, stopped bool) {
	limit := tb.Eng.Now() + 10*time.Second
	for tb.Eng.Now() < limit && tb.Eng.Step() {
		kind, fid, p, ok := tb.Ctrl.CurrentJob()
		if !ok || kind != cc.kind || fid != cc.fid {
			if len(seen) > 0 {
				return seen, false
			}
			continue
		}
		if len(seen) == 0 || seen[len(seen)-1] != p {
			seen = append(seen, p)
		}
		if stop(p) {
			return seen, true
		}
	}
	return seen, false
}

// TestCrashAtEveryPhase crashes the controller at every phase a job waits
// in — for an admission that reallocates a neighbour and for a defrag
// migration — restarts it 300 ms later and lets the testbed settle. Whatever
// the phase, nobody is left negotiating or inside a snapshot window, every
// operational client is active at the placement the tables hold, the books
// hold exactly the operational tenants, and both audits are clean.
func TestCrashAtEveryPhase(t *testing.T) {
	for _, cc := range []crashCase{cacheCase(), defragCase()} {
		tb, _, start := cc.build(t)
		start()
		seen, _ := stepJob(tb, cc, func(switchd.Phase) bool { return false })
		if !slices.Equal(seen, cc.phases) {
			t.Fatalf("%s: the job waited in %v, want %v", cc.name, seen, cc.phases)
		}
		for _, p := range cc.phases {
			t.Run(cc.name+"/"+p.String(), func(t *testing.T) {
				tb, cls, start := cc.build(t)
				start()
				t0 := tb.Eng.Now()
				if _, ok := stepJob(tb, cc, func(q switchd.Phase) bool { return q == p }); !ok {
					t.Fatalf("the job never reached %v", p)
				}
				crashedAt := tb.Eng.Now() - t0
				tb.Ctrl.Crash()
				tb.RunFor(300 * time.Millisecond)
				tb.Ctrl.Restart()
				tb.RunFor(10 * time.Second)

				operational := 0
				for _, cl := range cls {
					switch cl.State() {
					case client.Negotiating, client.MemMgmt:
						t.Errorf("fid %d stuck in %v", cl.FID(), cl.State())
					case client.Operational:
						operational++
						if tb.RT.Quarantined(cl.FID()) {
							t.Errorf("fid %d is operational but deactivated", cl.FID())
						}
						for _, ap := range cl.Placement().Accesses {
							reg, ok := tb.RT.RegionFor(cl.FID(), ap.Physical)
							if !ok || reg.Lo != ap.Range.Lo || reg.Hi != ap.Range.Hi {
								t.Errorf("fid %d stage %d: placement %v, tables %v (installed %v)", cl.FID(), ap.Physical, ap.Range, reg, ok)
							}
						}
					}
				}
				al := tb.Ctrl.Allocator()
				if al.NumApps() != operational {
					t.Errorf("books hold %d tenants, %d clients are operational", al.NumApps(), operational)
				}
				if err := al.AuditBooks(); err != nil {
					t.Errorf("books: %v", err)
				}
				if fs := guard.AuditRuntime(tb.RT); len(fs) > 0 {
					t.Errorf("isolation audit: %v", fs)
				}
				t.Logf("crashed %v into the job; %d clients operational; lost: %s", crashedAt, operational, cc.loss(tb, t0))
			})
		}
	}
}
