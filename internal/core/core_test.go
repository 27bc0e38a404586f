package core

import (
	"strings"
	"testing"

	"activermt/internal/compiler"
	"activermt/internal/isa"
)

var counterProg = isa.MustAssemble("counter", `
MAR_LOAD 2
MEM_INCREMENT
MBR_STORE 0
RTS
RETURN
`)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeployExecuteUndeploy(t *testing.T) {
	sys := newSystem(t)
	dep, err := sys.Deploy(1, counterProg, false, []compiler.AccessSpec{{Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dep.FID != 1 || len(dep.Placement.Accesses) != 1 {
		t.Fatalf("deployment: %+v", dep)
	}
	addr := dep.Placement.Accesses[0].Range.Lo
	for want := uint32(1); want <= 3; want++ {
		outs := sys.Execute(dep, [4]uint32{0, 0, addr, 0}, 0)
		if outs[0].Dropped || outs[0].Active.Args[0] != want {
			t.Fatalf("count = %d (dropped=%v), want %d", outs[0].Active.Args[0], outs[0].Dropped, want)
		}
		if !outs[0].ToSender {
			t.Error("RTS not honored")
		}
	}
	if sys.Utilization() <= 0 {
		t.Error("utilization zero after deployment")
	}
	// Undeploy as the controller does: release the books, remove the grant.
	if _, err := sys.AL.Release(1); err != nil {
		t.Fatal(err)
	}
	sys.RT.RemoveGrant(1)
	if sys.Utilization() != 0 {
		t.Error("utilization nonzero after undeploy")
	}
	// Packets after undeploy pass through unexecuted.
	outs := sys.Execute(dep, [4]uint32{0, 0, addr, 0}, 0)
	if outs[0].Executed {
		t.Error("undeployed fid executed")
	}
}

func TestDeployIsolation(t *testing.T) {
	sys := newSystem(t)
	d1, err := sys.Deploy(1, counterProg, false, []compiler.AccessSpec{{Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := sys.Deploy(2, counterProg, false, []compiler.AccessSpec{{Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 2 probing tenant 1's region faults iff they share a stage;
	// with disjoint stages the region simply isn't granted there.
	outs := sys.Execute(d2, [4]uint32{0, 0, d1.Placement.Accesses[0].Range.Lo, 0}, 0)
	sameStage := d1.Placement.Accesses[0].Logical == d2.Placement.Accesses[0].Logical
	if sameStage && !outs[0].Dropped {
		t.Error("cross-tenant access executed")
	}
}

func TestDeployElasticReallocates(t *testing.T) {
	sys := newSystem(t)
	elastic := isa.MustAssemble("e", "MAR_LOAD 2\nMEM_READ\nRTS\nRETURN")
	d1, err := sys.Deploy(1, elastic, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	size1 := d1.Placement.Accesses[0].Range.Hi - d1.Placement.Accesses[0].Range.Lo
	// Fill the reachable stages so a newcomer forces sharing.
	for fid := uint16(2); fid <= 12; fid++ {
		if _, err := sys.Deploy(fid, elastic, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The switch-side region for fid 1 shrank along the way.
	reg, ok := sys.RT.RegionFor(1, d1.Placement.Accesses[0].Logical%20)
	if !ok {
		t.Fatal("fid 1 region gone")
	}
	if reg.Hi-reg.Lo >= size1 {
		t.Errorf("fid 1 region did not shrink: %d -> %d", size1, reg.Hi-reg.Lo)
	}
}

func TestDeployStateless(t *testing.T) {
	sys := newSystem(t)
	prog := isa.MustAssemble("s", "COPY_HASHDATA_5TUPLE\nHASH 1\nRETURN")
	dep, err := sys.Deploy(3, prog, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs := sys.Execute(dep, [4]uint32{}, 0)
	if !outs[0].Executed {
		t.Error("stateless program did not execute")
	}
}

func TestDeployFailure(t *testing.T) {
	sys := newSystem(t)
	// Demand exceeding a stage pool (368 blocks).
	big := []compiler.AccessSpec{{Demand: 255}}
	if _, err := sys.Deploy(1, counterProg, false, big); err != nil {
		t.Fatal(err) // 255 fits
	}
	if _, err := sys.Deploy(2, counterProg, false, big); err != nil {
		t.Fatal(err) // second one lands in another stage
	}
	// Exhaust: the counter program reaches few stages, so this eventually
	// fails cleanly.
	var lastErr error
	for fid := uint16(3); fid < 40; fid++ {
		if _, err := sys.Deploy(fid, counterProg, false, big); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Fatal("no allocation failure after exhaustion")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RMT.NumStages = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad RMT config accepted")
	}
	cfg = DefaultConfig()
	cfg.Alloc.BlockWords = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad alloc config accepted")
	}
}

// TestNewRejectsPipelineMismatch: the pipeline shape is declared in both
// configurations; New refuses a pair that disagrees, naming both values.
func TestNewRejectsPipelineMismatch(t *testing.T) {
	for _, c := range []struct {
		field  string
		mutate func(*Config)
		want   string
	}{
		{"NumStages", func(c *Config) { c.Alloc.NumStages = 19 }, "NumStages is 19 but the pipeline's is 20"},
		{"NumIngress", func(c *Config) { c.RMT.NumIngress = 8 }, "NumIngress is 10 but the pipeline's is 8"},
		{"StageWords", func(c *Config) { c.Alloc.StageWords = 96 * 256 }, "StageWords is 24576 but the pipeline's is 94208"},
	} {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mismatch: err = %v, want it to say %q", c.field, err, c.want)
		}
	}
}
