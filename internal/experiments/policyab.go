package experiments

import (
	"fmt"
	"strings"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/client"
	"activermt/internal/guard"
	"activermt/internal/netsim"
	"activermt/internal/testbed"
	"activermt/internal/workload"
)

// The policy A/B harness: the same seeded workload — a cache tenant under
// Zipf traffic plus a churning population of inelastic memsync tenants —
// is run once per chaos scenario with no policy loop (static) and once
// under the loop (adaptive), and the end states are compared side by side.
// The interesting column is fragmentation: churn strands the surviving
// tenants above holes, static never migrates, adaptive defragments.

// PolicyABCell is one (scenario, mode) run's end state.
type PolicyABCell struct {
	FinalFrag        float64
	DefragMigrations uint64
	BlocksMoved      uint64
	HitRate          float64
	SnapshotTimeouts uint64
	AuditClean       bool
}

// PolicyABRow is one chaos scenario's static-vs-adaptive comparison.
type PolicyABRow struct {
	Scenario string
	Static   PolicyABCell
	Adaptive PolicyABCell
}

// Winner scores the row: adaptive wins when it ends less fragmented with
// clean audits and at least one migration; a dirty audit on either side is
// a failure ("none"); otherwise the modes tied.
func (r PolicyABRow) Winner() string {
	if !r.Static.AuditClean || !r.Adaptive.AuditClean {
		return "none"
	}
	if r.Adaptive.DefragMigrations > 0 && r.Adaptive.FinalFrag < r.Static.FinalFrag {
		return "adaptive"
	}
	return "tie"
}

// RunPolicyAB runs every named chaos scenario in both modes with the
// same seed. Empty scenarios means the full chaos library.
func RunPolicyAB(scenarios []string, seed int64) ([]PolicyABRow, error) {
	if len(scenarios) == 0 {
		scenarios = chaos.Names()
	}
	rows := make([]PolicyABRow, 0, len(scenarios))
	for _, name := range scenarios {
		st, err := policyABRun(name, "static", seed)
		if err != nil {
			return nil, fmt.Errorf("%s/static: %w", name, err)
		}
		ad, err := policyABRun(name, "adaptive", seed)
		if err != nil {
			return nil, fmt.Errorf("%s/adaptive: %w", name, err)
		}
		rows = append(rows, PolicyABRow{Scenario: name, Static: *st, Adaptive: *ad})
	}
	return rows, nil
}

// policyABRun executes one cell: build the testbed, attach the policy loop
// (adaptive only), admit the cache + the churn population, release the
// interleaved waves, arm the chaos scenario, drive traffic, and read back
// the end state.
func policyABRun(scenario, mode string, seed int64) (*PolicyABCell, error) {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if mode == "adaptive" {
		tb.AttachPolicy()
	}

	// Cache tenant: hit rate is the service-quality column of the A/B.
	srv := tb.AddKVServer()
	cache, cl := tb.AddCache(1, srv)
	if err := cl.RequestAndWait(10 * time.Second); err != nil {
		return nil, err
	}
	cl.RetryAfter = 50 * time.Millisecond
	cl.ReallocTimeout = 250 * time.Millisecond

	// Churn population: four waves of inelastic memsync tenants, then the
	// first and third waves released. Memsync placement is column-major
	// across its placeable stages, so survivors of waves 1 and 3 sit above
	// the holes the released waves leave behind.
	const waves, perWave, demand = 4, 6, 48
	churn := make([]*client.Client, 0, waves*perWave)
	fid := uint16(100)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			_, c := tb.AddMemSync(fid, demand)
			if err := c.RequestAndWait(10 * time.Second); err != nil {
				return nil, fmt.Errorf("churn fid %d: %w", fid, err)
			}
			churn = append(churn, c)
			fid++
		}
	}
	for w := 0; w < waves; w += 2 {
		for i := 0; i < perWave; i++ {
			if err := churn[w*perWave+i].Release(); err != nil {
				return nil, err
			}
		}
		tb.RunFor(200 * time.Millisecond)
	}

	// Chaos scenario, aimed at the cache tenant's link / stage, the same
	// way activesim -chaos arms it.
	sc, err := chaos.Build(scenario, []*netsim.Port{cl.Port()}, cl.Placement().Accesses[0].Physical, seed)
	if err != nil {
		return nil, err
	}
	if err := sc.Install(tb.System()); err != nil {
		return nil, err
	}

	// Seeded Zipf traffic across the chaos window.
	z := workload.NewZipf(seed, 1.25, 2048)
	keys, hot := srv.SeedObjects(2048)
	cache.SetHotObjects(hot)
	cache.Populate()
	tb.RunFor(50 * time.Millisecond)
	for i := 0; i < 3000; i++ {
		k := keys[z.Next()]
		cache.Get(k[0], k[1])
		tb.RunFor(50 * time.Microsecond)
	}
	tb.RunFor(2 * time.Second) // chaos + recovery + policy loop settle

	cell := &PolicyABCell{
		FinalFrag:        tb.Ctrl.Allocator().Fragmentation(),
		DefragMigrations: tb.Ctrl.DefragMigrations,
		BlocksMoved:      tb.Ctrl.DefragBlocksMoved,
		HitRate:          cache.HitRate(),
		SnapshotTimeouts: tb.Ctrl.SnapshotTimeouts,
		AuditClean:       true,
	}
	if err := tb.Ctrl.Allocator().AuditBooks(); err != nil {
		cell.AuditClean = false
	}
	if fs := guard.AuditRuntime(tb.RT); len(fs) > 0 {
		cell.AuditClean = false
	}
	return cell, nil
}

// PolicyABCSV renders the comparison, one row per scenario with
// static_*/adaptive_* column pairs and the scored winner.
func PolicyABCSV(rows []PolicyABRow) string {
	var b strings.Builder
	b.WriteString("scenario," +
		"static_final_frag,static_defrag_migrations,static_blocks_moved,static_hit_rate,static_snapshot_timeouts,static_audit_clean," +
		"adaptive_final_frag,adaptive_defrag_migrations,adaptive_blocks_moved,adaptive_hit_rate,adaptive_snapshot_timeouts,adaptive_audit_clean," +
		"winner\n")
	cell := func(c PolicyABCell) string {
		clean := 0
		if c.AuditClean {
			clean = 1
		}
		return fmt.Sprintf("%.4f,%d,%d,%.4f,%d,%d",
			c.FinalFrag, c.DefragMigrations, c.BlocksMoved, c.HitRate, c.SnapshotTimeouts, clean)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%s\n", r.Scenario, cell(r.Static), cell(r.Adaptive), r.Winner())
	}
	return b.String()
}
