package chaos

import (
	"testing"
	"time"

	"activermt/internal/netsim"
	"activermt/internal/packet"
	"activermt/internal/switchd"
)

type sink struct{ got int }

func (s *sink) Receive(frame []byte, p *netsim.Port) { s.got++ }

func bareLink(t *testing.T) (*netsim.Engine, *netsim.Port, *sink) {
	t.Helper()
	eng := netsim.NewEngine()
	a, b := &sink{}, &sink{}
	pa, _ := netsim.Connect(eng, a, 0, b, 0, time.Microsecond, 0)
	_ = a
	return eng, pa, b
}

// TestLibraryBuild installs every verb on a bare link, with a switch behind
// the system for the device faults, runs past its last event, and checks the
// link is whole again: every event fired, both ports up, nothing lost.
func TestLibraryBuild(t *testing.T) {
	for _, name := range Names() {
		eng := netsim.NewEngine()
		a, b := &sink{}, &sink{}
		pa, pb := netsim.Connect(eng, a, 0, b, 0, 0, 0)
		node, err := switchd.NewNode(eng, switchd.DefaultNodeConfig(), packet.MAC{2})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Build(name, []*netsim.Port{pa}, 3, 1)
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		if sc.Name != name {
			t.Errorf("Build(%q).Name = %q", name, sc.Name)
		}
		if len(sc.events) == 0 {
			t.Errorf("scenario %q has no events", name)
			continue
		}
		if name == "corrupted-memory" && sc.events[0].name != "apply:corrupt(stage3,24b)" {
			t.Errorf("corrupted-memory fires %q first, want the corruption of the given stage 3", sc.events[0].name)
		}
		var last time.Duration
		for _, ev := range sc.events {
			last = max(last, ev.off)
		}
		if err := sc.Install(&System{Eng: eng, Node: node}); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(last + time.Millisecond)
		if len(sc.Trace()) != len(sc.events) {
			t.Errorf("%s fired %d of %d events", name, len(sc.Trace()), len(sc.events))
		}
		if pa.Down() || pb.Down() {
			t.Errorf("%s left a port down", name)
		}
		a.got, b.got = 0, 0
		for i := 0; i < 100; i++ {
			pa.Send([]byte{1})
			pb.Send([]byte{2})
		}
		eng.RunUntil(eng.Now() + time.Millisecond)
		if a.got != 100 || b.got != 100 {
			t.Errorf("%s: delivered %d and %d of 100 each way after its last event", name, b.got, a.got)
		}
	}
	if _, err := Build("nope", nil, 0, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Build("flapping-port", nil, 0, 1); err == nil {
		t.Error("flapping-port without links accepted")
	}
}

// TestOutageAndFlapTraces pins the two shared schedules: Outage is one
// apply/revert pair, Flap one pair per period, down for its first half.
func TestOutageAndFlapTraces(t *testing.T) {
	const ms = time.Millisecond
	eng, pa, _ := bareLink(t)
	inj := Partition{Ports: []*netsim.Port{pa}}
	out := Outage("out", inj, 10*ms, 50*ms, 1)
	flap := Flap("flap", inj, 100*ms, 40*ms, 3, 1)
	for _, sc := range []*Scenario{out, flap} {
		if err := sc.Install(&System{Eng: eng}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got, want := TraceString(out.Trace()), "apply:partition(1)@10ms\nrevert:partition(1)@60ms\n"; got != want {
		t.Errorf("Outage trace = %q, want %q", got, want)
	}
	want := "apply:partition(1)@100ms\nrevert:partition(1)@120ms\n" +
		"apply:partition(1)@140ms\nrevert:partition(1)@160ms\n" +
		"apply:partition(1)@180ms\nrevert:partition(1)@200ms\n"
	if got := TraceString(flap.Trace()); got != want {
		t.Errorf("Flap trace = %q, want %q", got, want)
	}
	if n := pa.DownTransitions(); n != 4 {
		t.Errorf("down transitions = %d, want 4", n)
	}
}

func TestScenarioInstallOnce(t *testing.T) {
	eng := netsim.NewEngine()
	sc := NewScenario("x", 1).At(0, "noop", func(*System) {})
	if err := sc.Install(nil); err == nil {
		t.Error("install on nil system accepted")
	}
	if err := sc.Install(&System{Eng: eng}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Install(&System{Eng: eng}); err == nil {
		t.Error("double install accepted")
	}
}

func TestScenarioRandStreams(t *testing.T) {
	a := NewScenario("x", 42).Rand("loss")
	b := NewScenario("x", 42).Rand("loss")
	c := NewScenario("x", 42).Rand("delay")
	same, diff := true, false
	for i := 0; i < 16; i++ {
		va, vb, vc := a.Int63(), b.Int63(), c.Int63()
		if va != vb {
			same = false
		}
		if va != vc {
			diff = true
		}
	}
	if !same {
		t.Error("same (seed, stream) produced different sequences")
	}
	if !diff {
		t.Error("different streams produced the same sequence")
	}
}

func TestScenarioTraceOrder(t *testing.T) {
	eng := netsim.NewEngine()
	sc := NewScenario("x", 1)
	sc.At(20*time.Millisecond, "late", func(*System) {})
	sc.At(10*time.Millisecond, "early", func(*System) {})
	if err := sc.Install(&System{Eng: eng}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	tr := sc.Trace()
	if len(tr) != 2 || tr[0].Name != "early" || tr[1].Name != "late" {
		t.Fatalf("trace = %v", tr)
	}
	if TraceString(tr) != "early@10ms\nlate@20ms\n" {
		t.Errorf("TraceString = %q", TraceString(tr))
	}
}

func TestLinkLossInjectorBothDirectionsAndRevert(t *testing.T) {
	eng, pa, b := bareLink(t)
	sys := &System{Eng: eng}
	inj := LinkLoss{Link: pa, Rate: 1.0, Seed: 5}
	inj.Apply(sys)
	for i := 0; i < 10; i++ {
		pa.Send([]byte{1})
	}
	eng.Run()
	if b.got != 0 {
		t.Fatalf("delivered %d frames under 100%% loss", b.got)
	}
	if pa.Peer().Down() || pa.Down() {
		t.Error("loss injector marked port down")
	}
	inj.Revert(sys)
	for i := 0; i < 10; i++ {
		pa.Send([]byte{1})
	}
	eng.Run()
	if b.got != 10 {
		t.Fatalf("delivered %d/10 after revert", b.got)
	}
}

func TestPartitionInjector(t *testing.T) {
	eng, pa, b := bareLink(t)
	sys := &System{Eng: eng}
	inj := Partition{Ports: []*netsim.Port{pa}}
	inj.Apply(sys)
	pa.Send([]byte{1})
	pa.Peer().Send([]byte{2}) // toward the downed port: dropped on delivery
	eng.Run()
	if b.got != 0 {
		t.Fatalf("frames crossed a partition: %d", b.got)
	}
	inj.Revert(sys)
	pa.Send([]byte{1})
	eng.Run()
	if b.got != 1 {
		t.Fatalf("delivery after heal: %d", b.got)
	}
}

func TestLinkDelayInjectorRevertRestoresLatency(t *testing.T) {
	eng, pa, b := bareLink(t)
	sys := &System{Eng: eng}
	inj := LinkDelay{Link: pa, Extra: 5 * time.Millisecond, Jitter: 0, Seed: 1}
	inj.Apply(sys)
	pa.Send([]byte{1})
	eng.RunUntil(time.Millisecond)
	if b.got != 0 {
		t.Fatal("frame arrived before the injected delay")
	}
	eng.RunUntil(10 * time.Millisecond)
	if b.got != 1 {
		t.Fatal("frame lost under delay injection")
	}
	inj.Revert(sys)
	pa.Send([]byte{1})
	eng.RunUntil(eng.Now() + 2*time.Microsecond)
	if b.got != 2 {
		t.Fatal("revert did not restore base latency")
	}
}
