package experiments

import (
	"testing"
	"time"

	"activermt/internal/testbed"
)

// TestDefragShape fragments a switch with the canonical churn pattern (four
// waves of inelastic memsync tenants, alternate waves released), then asks
// the controller for a defragmentation pass every 100 ms, which migrates the
// survivors down. All virtual time, so the shape is exact: the passes must
// migrate, and fragmentation must fall.
func TestDefragShape(t *testing.T) {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	const waves, perWave, demand = 4, 6, 48
	var release []func() error
	fid := uint16(100)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			_, cl := tb.AddMemSync(fid, demand)
			if err := cl.RequestAndWait(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			release = append(release, cl.Release)
			fid++
		}
	}
	// Release the even waves and sample the gauge before asking for a pass,
	// so fragBefore reflects the holes rather than their repair.
	for w := 0; w < waves; w += 2 {
		for i := 0; i < perWave; i++ {
			if err := release[w*perWave+i](); err != nil {
				t.Fatal(err)
			}
		}
	}
	tb.RunFor(200 * time.Millisecond)
	fragBefore := tb.Ctrl.Allocator().Fragmentation()

	for i := 0; i < 30; i++ {
		tb.Ctrl.Defragment()
		tb.RunFor(100 * time.Millisecond)
	}
	fragAfter := tb.Ctrl.Allocator().Fragmentation()

	if tb.Ctrl.DefragMigrations == 0 || tb.Ctrl.DefragBlocksMoved == 0 || tb.Ctrl.DefragWordsRestored == 0 {
		t.Fatalf("defrag passes did not migrate: %d migrations, %d blocks, %d words",
			tb.Ctrl.DefragMigrations, tb.Ctrl.DefragBlocksMoved, tb.Ctrl.DefragWordsRestored)
	}
	if fragAfter >= fragBefore {
		t.Fatalf("defrag did not reduce fragmentation: %.4f -> %.4f", fragBefore, fragAfter)
	}
	t.Logf("frag %.4f -> %.4f, %d migrations, %d blocks, %d words", fragBefore, fragAfter,
		tb.Ctrl.DefragMigrations, tb.Ctrl.DefragBlocksMoved, tb.Ctrl.DefragWordsRestored)
}
