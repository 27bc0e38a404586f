package testbed

import (
	"io"
	"sync"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/switchd"
	"activermt/internal/telemetry"
)

// defragBed admits n inelastic memsync tenants (demand blocks each), writes
// a recognizable pattern into tenants nRelease+1..n, then releases tenants
// 1..nRelease. Earlier admissions sit at lower offsets in each shared
// stage, so releasing the first wave leaves every survivor that shares a
// stage floating above a bottom hole. Returns the testbed and the
// surviving drivers keyed by FID.
func defragBed(t *testing.T, n, nRelease, demand, words int) (*Testbed, map[uint16]*apps.MemSync) {
	t.Helper()
	tb := newBed(t)
	drivers := map[uint16]*apps.MemSync{}
	clients := map[uint16]*client.Client{}
	for fid := uint16(1); fid <= uint16(n); fid++ {
		ms, cl := tb.AddMemSync(fid, demand)
		if err := cl.RequestAllocation(); err != nil {
			t.Fatalf("fid %d request: %v", fid, err)
		}
		if err := tb.WaitOperational(cl, 10*time.Second); err != nil {
			t.Fatalf("fid %d: %v", fid, err)
		}
		drivers[fid] = ms
		clients[fid] = cl
	}
	for fid := uint16(nRelease + 1); fid <= uint16(n); fid++ {
		ms := drivers[fid]
		for i := 0; i < words; i++ {
			ms.Write(uint32(i), uint32(fid)<<16|uint32(i), nil)
		}
	}
	tb.RunFor(50 * time.Millisecond)
	for fid := uint16(1); fid <= uint16(nRelease); fid++ {
		if err := clients[fid].Release(); err != nil {
			t.Fatalf("fid %d release: %v", fid, err)
		}
		delete(drivers, fid)
	}
	tb.RunFor(time.Second)
	if vs := tb.Check(); len(vs) > 0 {
		t.Fatalf("check after churn: %v", vs)
	}
	return tb, drivers
}

// TestDefragLiveMigration is the end-to-end online-defragmentation check:
// churn fragments the pipeline, a defrag pass migrates the surviving
// inelastic tenants downward through the full deactivate/snapshot/update/
// reactivate protocol, and afterwards (a) the fragmentation gauge has
// recovered, (b) the books balance and the isolation audit is clean, and
// (c) every word written before the migration reads back through the data
// plane at the tenant's new placement.
func TestDefragLiveMigration(t *testing.T) {
	const n, nRelease, demand, words = 30, 12, 16, 4
	tb, drivers := defragBed(t, n, nRelease, demand, words)
	al := tb.Ctrl.Allocator()

	fragBefore := al.Fragmentation()
	if fragBefore <= 0 {
		t.Fatalf("churn left fragmentation %v, want > 0", fragBefore)
	}
	for i := 0; i < 4; i++ { // each pass queued while the books still hold a candidate
		tb.Ctrl.Defragment()
	}
	tb.RunFor(5 * time.Second)

	if tb.Ctrl.DefragPasses == 0 || tb.Ctrl.DefragMigrations == 0 {
		t.Fatalf("defrag did not run: passes=%d migrations=%d",
			tb.Ctrl.DefragPasses, tb.Ctrl.DefragMigrations)
	}
	if tb.Ctrl.DefragWordsRestored == 0 {
		t.Fatal("migration restored no state")
	}
	fragAfter := al.Fragmentation()
	if fragAfter >= fragBefore {
		t.Fatalf("fragmentation %v -> %v, want a decrease", fragBefore, fragAfter)
	}
	if vs := tb.Check(); len(vs) > 0 {
		t.Fatalf("check after migration: %v", vs)
	}

	// Every pre-migration word must read back at the new placement.
	checked := 0
	for fid, ms := range drivers {
		fid := fid
		for i := 0; i < words; i++ {
			i := i
			want := uint32(fid)<<16 | uint32(i)
			ms.Read(uint32(i), func(v uint32) {
				checked++
				if v != want {
					t.Errorf("fid %d word %d = %#x, want %#x", fid, i, v, want)
				}
			})
		}
	}
	tb.RunFor(100 * time.Millisecond)
	if want := len(drivers) * words; checked != want {
		t.Fatalf("read back %d/%d words", checked, want)
	}
}

// TestDefragAuditsDuringMigration schedules the allocator book audit and
// the runtime isolation audit at points straddling an in-flight migration —
// each also publishing a telemetry snapshot from inside the engine — while a
// separate goroutine renders whatever snapshot is published. Run under -race
// this checks that (a) the audits hold at every engine-consistent point
// mid-migration, not just at quiescence, and (b) the published-snapshot path
// shares nothing with the single-threaded engine mutating the books.
func TestDefragAuditsDuringMigration(t *testing.T) {
	const n, nRelease, demand, words = 30, 12, 16, 2
	tb, _ := defragBed(t, n, nRelease, demand, words)
	reg := tb.EnableTelemetry()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				telemetry.WritePrometheus(io.Discard, reg.Published())
			}
		}
	}()

	audits := 0
	audit := func() {
		audits++
		reg.Publish()
		if vs := tb.Check(); len(vs) > 0 {
			t.Errorf("mid-migration check: %v", vs)
		}
	}
	// Straddle the deactivate/snapshot/update/reactivate window: the defrag
	// pass is queued now, and the audits fire from inside the engine at
	// sub-window offsets while it runs.
	tb.Ctrl.Defragment()
	tb.Ctrl.Defragment()
	for off := 100 * time.Microsecond; off < 50*time.Millisecond; off *= 2 {
		tb.Eng.Schedule(off, audit)
	}
	tb.RunFor(5 * time.Second)
	close(stop)
	wg.Wait()

	if audits == 0 {
		t.Fatal("no audits ran")
	}
	if tb.Ctrl.DefragMigrations == 0 {
		t.Fatal("no migration was in flight")
	}
	audit()
}

// TestAttachPolicyDefragmentsOnlyWhatCanMove pins who decides whether a
// requested defrag pass runs: the allocator. The test asks the controller for
// a pass (Controller.Defragment) every 100 ms for two seconds. A switch
// fragmented only by quarantined blocks — the corrupted-memory shape, where
// the one tenant is elastic and fenced around the damage — has nobody to
// move, so however high the fragmentation gauge reads, no pass is queued or
// recorded. The defragBed population, which has inelastic tenants floating
// above holes, is compacted until the allocator has no candidate left, and
// every recorded pass moved someone.
func TestAttachPolicyDefragmentsOnlyWhatCanMove(t *testing.T) {
	candidates := func(tb *Testbed) []uint16 { return tb.Ctrl.Allocator().CompactionCandidates(nil) }
	requestPasses := func(tb *Testbed) {
		for i := 0; i < 20; i++ {
			tb.Ctrl.Defragment()
			tb.RunFor(100 * time.Millisecond)
		}
	}
	defragRecords := func(t *testing.T, tb *Testbed) (n int) {
		for _, rec := range tb.Ctrl.Records {
			if rec.Kind == switchd.JobDefrag {
				n++
				if rec.Reallocated == 0 {
					t.Errorf("a defrag pass at %v moved nobody", rec.Start)
				}
			}
		}
		return n
	}

	t.Run("quarantine-fenced", func(t *testing.T) {
		tb := newBed(t)
		srv := tb.AddKVServer()
		_, cl := tb.AddCache(1, srv)
		if err := cl.RequestAndWait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		stage := cl.Placement().Accesses[0].Physical
		chaos.RegisterCorruption{Stage: stage, Bits: 24, Seed: 3, PreferOwned: true}.Apply(tb.System())
		tb.Ctrl.SweepAndRepair()
		tb.RunFor(time.Second)
		al := tb.Ctrl.Allocator()
		// Above 0.02: a fragmentation threshold tuned for one switch would
		// call for migration here.
		if f := al.Fragmentation(); al.QuarantinedBlocks() == 0 || f < 0.02 {
			t.Fatalf("sweep left %d quarantined blocks, fragmentation %.4f; want a fenced, fragmented switch", al.QuarantinedBlocks(), f)
		}
		if c := candidates(tb); len(c) > 0 {
			t.Fatalf("compaction candidates %v on a switch holding only an elastic tenant", c)
		}
		requestPasses(tb)
		if n := defragRecords(t, tb); n != 0 || tb.Ctrl.DefragPasses != 0 {
			t.Fatalf("%d defrag records, %d passes with nothing to move", n, tb.Ctrl.DefragPasses)
		}
	})

	t.Run("defragBed", func(t *testing.T) {
		tb, _ := defragBed(t, 30, 12, 16, 1)
		if len(candidates(tb)) == 0 {
			t.Fatal("churn left no compaction candidate")
		}
		requestPasses(tb)
		if c := candidates(tb); len(c) > 0 {
			t.Fatalf("candidates %v left after %d passes", c, tb.Ctrl.DefragPasses)
		}
		if n := defragRecords(t, tb); n == 0 || uint64(n) != tb.Ctrl.DefragPasses {
			t.Fatalf("%d defrag records, %d passes counted", n, tb.Ctrl.DefragPasses)
		}
		if vs := tb.Check(); len(vs) > 0 {
			t.Fatalf("check after migration: %v", vs)
		}
	})
}
