package runtime

import (
	"math"
	"testing"
	"time"

	"activermt/internal/isa"
	"activermt/internal/rmt"
)

func TestRecircLimiterThrottles(t *testing.T) {
	r := testRuntime(t)
	const fid = 3
	r.AdmitStateless(fid)

	var now time.Duration
	r.EnableRecircLimiter(RecircPolicy{Budget: 2, Window: time.Second}, func() time.Duration { return now })

	// A 45-instruction program needs 2 extra passes.
	long := &isa.Program{Name: "long"}
	for i := 0; i < 44; i++ {
		long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpNop})
	}
	long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpReturn})

	// First packet consumes the whole budget; the second is dropped.
	outs := r.ExecuteProgram(progPacket(fid, long, [4]uint32{}))
	if outs[0].Dropped {
		t.Fatal("first recirculating packet dropped")
	}
	outs = r.ExecuteProgram(progPacket(fid, long, [4]uint32{}))
	if !outs[0].Dropped {
		t.Fatal("over-budget packet not dropped")
	}
	if r.RecircThrottled != 1 {
		t.Errorf("throttled = %d", r.RecircThrottled)
	}

	// Short programs are never policed.
	short := isa.MustAssemble("s", "NOP\nRETURN")
	outs = r.ExecuteProgram(progPacket(fid, short, [4]uint32{}))
	if outs[0].Dropped {
		t.Error("single-pass program throttled")
	}

	// A new window refills the bucket.
	now += 2 * time.Second
	outs = r.ExecuteProgram(progPacket(fid, long, [4]uint32{}))
	if outs[0].Dropped {
		t.Error("budget not refilled after window")
	}
}

func TestRecircLimiterPerFID(t *testing.T) {
	r := testRuntime(t)
	r.AdmitStateless(1)
	r.AdmitStateless(2)
	r.EnableRecircLimiter(RecircPolicy{Budget: 1, Window: time.Second}, func() time.Duration { return 0 })
	long := &isa.Program{}
	for i := 0; i < 25; i++ {
		long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpNop})
	}
	// FID 1 exhausts its own budget; FID 2 is unaffected.
	r.ExecuteProgram(progPacket(1, long, [4]uint32{}))
	if outs := r.ExecuteProgram(progPacket(1, long, [4]uint32{})); !outs[0].Dropped {
		t.Error("fid 1 not throttled")
	}
	if outs := r.ExecuteProgram(progPacket(2, long, [4]uint32{})); outs[0].Dropped {
		t.Error("fid 2 throttled by fid 1's usage")
	}
}

func TestRecircBudgetRemainingBoundary(t *testing.T) {
	r := testRuntime(t)
	const fid = 9
	r.AdmitStateless(fid)

	// Limiter disabled: every query reports unlimited.
	if got := r.RecircBudgetRemaining(fid); got != math.MaxInt {
		t.Fatalf("disabled limiter remaining = %d, want MaxInt", got)
	}

	var now time.Duration
	r.EnableRecircLimiter(RecircPolicy{Budget: 2, Window: time.Second}, func() time.Duration { return now })

	// No bucket yet: full budget.
	if got := r.RecircBudgetRemaining(fid); got != 2 {
		t.Fatalf("fresh FID remaining = %d, want 2", got)
	}

	// A 25-instruction program costs one extra pass.
	long := &isa.Program{Name: "long"}
	for i := 0; i < 24; i++ {
		long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpNop})
	}
	long.Instrs = append(long.Instrs, isa.Instruction{Op: isa.OpReturn})

	// remaining == extra is the admissible boundary: both tokens spend
	// cleanly, then the very next capsule throttles.
	for want := 1; want >= 0; want-- {
		if outs := r.ExecuteProgram(progPacket(fid, long, [4]uint32{})); outs[0].Dropped {
			t.Fatalf("capsule with remaining > 0 dropped (want left %d)", want)
		}
		if got := r.RecircBudgetRemaining(fid); got != want {
			t.Fatalf("remaining = %d, want %d", got, want)
		}
	}
	if outs := r.ExecuteProgram(progPacket(fid, long, [4]uint32{})); !outs[0].Dropped {
		t.Fatal("capsule admitted at remaining 0")
	}
	if r.RecircThrottled != 1 {
		t.Fatalf("throttled = %d, want 1", r.RecircThrottled)
	}

	// A cooperative caller that polls before sending never throttles: the
	// query itself must not charge the bucket.
	if got := r.RecircBudgetRemaining(fid); got != 0 {
		t.Fatalf("remaining after drop = %d, want 0", got)
	}
	if got := r.RecircBudgetRemaining(fid); got != 0 {
		t.Fatalf("second query changed remaining: %d", got)
	}

	// Exactly one window later the bucket reads full again (>= Window is
	// the rollover condition in RecircAllowed; the accessor must agree).
	now += time.Second
	if got := r.RecircBudgetRemaining(fid); got != 2 {
		t.Fatalf("remaining after window rollover = %d, want 2", got)
	}
}

func TestExtendedForwardingConfig(t *testing.T) {
	base := rmt.DefaultConfig()
	ext := ExtendedForwardingConfig(base)
	if ext.NumStages != base.NumStages-1 {
		t.Errorf("stages = %d, want one fewer (Section 7.1)", ext.NumStages)
	}
	if ext.PassLatency <= base.PassLatency {
		t.Error("latency did not increase")
	}
	ratio := float64(ext.PassLatency) / float64(base.PassLatency)
	if ratio < 1.03 || ratio > 1.05 {
		t.Errorf("latency ratio %.3f, want ~1.04", ratio)
	}
	// The extended runtime still builds and runs.
	r, err := New(ext)
	if err != nil {
		t.Fatal(err)
	}
	r.AdmitStateless(1)
	outs := r.ExecuteProgram(progPacket(1, isa.MustAssemble("p", "NOP\nRETURN"), [4]uint32{}))
	if !outs[0].Executed {
		t.Error("extended runtime broken")
	}
}
