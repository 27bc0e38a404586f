package testbed

import (
	"io"
	"sync"
	"testing"
	"time"

	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/policy"
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
	if err := tb.Ctrl.Allocator().AuditBooks(); err != nil {
		t.Fatalf("books after churn: %v", err)
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
	tb.Ctrl.Defragment(policy.DefaultDefragMoves * 4)
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
	if err := al.AuditBooks(); err != nil {
		t.Fatalf("books after migration: %v", err)
	}
	if fs := guard.AuditRuntime(tb.RT); len(fs) > 0 {
		t.Fatalf("isolation audit after migration: %v", fs)
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
	al := tb.Ctrl.Allocator()

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
		if err := al.AuditBooks(); err != nil {
			t.Errorf("mid-migration books: %v", err)
		}
		if fs := guard.AuditRuntime(tb.RT); len(fs) > 0 {
			t.Errorf("mid-migration isolation: %v", fs)
		}
	}
	// Straddle the deactivate/snapshot/update/reactivate window: the defrag
	// pass is queued now, and the audits fire from inside the engine at
	// sub-window offsets while it runs.
	tb.Ctrl.Defragment(8)
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

// TestAttachPolicyMigratesUntilTarget pins the testbed loop's migration band:
// once fragmentation has crossed the trigger, a pass is queued on every
// evaluation while it sits inside [target, trigger), until it falls below
// the target. Here the first pass leaves it inside the band, so only the
// band's hysteresis queues the passes that finish the job.
func TestAttachPolicyMigratesUntilTarget(t *testing.T) {
	tb, _ := defragBed(t, 30, 12, 16, 1)
	al := tb.Ctrl.Allocator()
	if f := al.Fragmentation(); f < defragTrigger {
		t.Fatalf("churn left fragmentation %.4f, below the %.3f trigger", f, defragTrigger)
	}
	// The first evaluation runs now; its pass compacts the books at once.
	tb.AttachPolicy()
	if f := al.Fragmentation(); tb.Ctrl.DefragPasses != 1 || f < defragTarget || f >= defragTrigger {
		t.Fatalf("after the first evaluation: %d passes, fragmentation %.4f; want 1 pass leaving it inside [%.3f, %.3f)",
			tb.Ctrl.DefragPasses, f, defragTarget, defragTrigger)
	}
	tb.RunFor(time.Second)
	if tb.Ctrl.DefragPasses < 2 {
		t.Fatalf("no further pass queued while fragmentation %.4f sat inside the band", al.Fragmentation())
	}
	if f := al.Fragmentation(); f >= defragTarget {
		t.Fatalf("fragmentation %.4f after %d passes, want below the %.3f target", f, tb.Ctrl.DefragPasses, defragTarget)
	}
	if err := al.AuditBooks(); err != nil {
		t.Fatalf("books after migration: %v", err)
	}
}
