package netsim

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10*time.Microsecond, func() { order = append(order, 2) })
	e.Schedule(5*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 3) }) // FIFO tie
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10*time.Microsecond {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() { fired++ })
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("nested event fired %d times", fired)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Second, func() { fired++ })
	e.Schedule(3*time.Second, func() { fired++ })
	e.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Second, func() {
			if e.Now() != time.Second {
				t.Errorf("negative delay moved time to %v", e.Now())
			}
		})
	})
	e.Run()
}

type sink struct {
	frames [][]byte
	ports  []*Port
	times  []time.Duration
	eng    *Engine
}

func (s *sink) Receive(frame []byte, p *Port) {
	s.frames = append(s.frames, frame)
	s.ports = append(s.ports, p)
	s.times = append(s.times, s.eng.Now())
}

func TestLinkDelayAndBandwidth(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, _ := Connect(e, a, 0, b, 1, 10*time.Microsecond, 8e9) // 8 Gbps: 1 ns/byte
	frame := make([]byte, 1000)
	pa.Send(frame)
	e.Run()
	if len(b.frames) != 1 {
		t.Fatalf("frames = %d", len(b.frames))
	}
	want := 10*time.Microsecond + 1000*time.Nanosecond
	if b.times[0] != want {
		t.Errorf("delivery at %v, want %v", b.times[0], want)
	}
	if b.ports[0].Num != 1 {
		t.Errorf("delivered on port %d", b.ports[0].Num)
	}
}

func TestLinkSerialization(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, _ := Connect(e, a, 0, b, 0, 0, 8e9)
	// Two back-to-back frames: the second serializes after the first.
	pa.Send(make([]byte, 1000))
	pa.Send(make([]byte, 1000))
	e.Run()
	if len(b.times) != 2 {
		t.Fatalf("frames = %d", len(b.times))
	}
	if b.times[1]-b.times[0] != 1000*time.Nanosecond {
		t.Errorf("spacing = %v, want 1us", b.times[1]-b.times[0])
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, pb := Connect(e, a, 0, b, 0, time.Microsecond, 0)
	pa.Send(make([]byte, 1<<20))
	e.Run()
	if b.times[0] != time.Microsecond {
		t.Errorf("delivery at %v", b.times[0])
	}
	// Reverse direction works too.
	pb.Send([]byte{1})
	e.Run()
	if len(a.frames) != 1 {
		t.Error("reverse direction broken")
	}
	if pa.TxFrames != 1 || pa.RxFrames != 1 || pb.TxFrames != 1 {
		t.Errorf("counters: %d/%d/%d", pa.TxFrames, pa.RxFrames, pb.TxFrames)
	}
	if pa.Peer() != pb {
		t.Error("peer accessor wrong")
	}
}

func TestPortDownDropsSendsAndResumes(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, _ := Connect(e, a, 0, b, 0, time.Microsecond, 0)

	pa.Send([]byte{1})
	e.Run()
	pa.SetDown(true)
	if !pa.Down() {
		t.Fatal("port not down")
	}
	pa.Send([]byte{2})
	pa.Send([]byte{3})
	e.Run()
	if len(b.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1 (down sends dropped)", len(b.frames))
	}
	if pa.DroppedDown != 2 {
		t.Errorf("DroppedDown = %d, want 2", pa.DroppedDown)
	}
	// Re-up resumes delivery.
	pa.SetDown(false)
	pa.Send([]byte{4})
	e.Run()
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d frames after re-up, want 2", len(b.frames))
	}
	// Counters stay consistent: every transmitted frame is delivered,
	// dropped-down, or lost.
	if pa.TxFrames != uint64(len(b.frames))+pa.DroppedDown+pa.Lost {
		t.Errorf("tx %d != rx %d + droppedDown %d + lost %d",
			pa.TxFrames, len(b.frames), pa.DroppedDown, pa.Lost)
	}
}

func TestPortDownDropsFramesInFlight(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, pb := Connect(e, a, 0, b, 0, 10*time.Microsecond, 0)

	pa.Send([]byte{1}) // in flight until t=10us
	e.Schedule(5*time.Microsecond, func() { pb.SetDown(true) })
	e.Run()
	if len(b.frames) != 0 {
		t.Fatalf("frame delivered into a downed port")
	}
	if pb.DroppedDown != 1 {
		t.Errorf("receiver DroppedDown = %d, want 1", pb.DroppedDown)
	}

	// A down/up flap mid-flight still kills the frame that was on the wire.
	pb.SetDown(false)
	pa.Send([]byte{2})
	e.Schedule(2*time.Microsecond, func() { pb.SetDown(true) })
	e.Schedule(4*time.Microsecond, func() { pb.SetDown(false) })
	e.Run()
	if len(b.frames) != 0 {
		t.Fatalf("frame survived a mid-flight flap")
	}
	if pb.DroppedDown != 2 {
		t.Errorf("receiver DroppedDown = %d, want 2", pb.DroppedDown)
	}

	// The next frame after the flap is delivered normally.
	pa.Send([]byte{3})
	e.Run()
	if len(b.frames) != 1 {
		t.Fatalf("delivery did not resume after flap")
	}
	if pb.RxFrames != 1 {
		t.Errorf("RxFrames = %d, want 1", pb.RxFrames)
	}
}

func TestPartitionIsolatesBothDirections(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, pb := Connect(e, a, 0, b, 0, time.Microsecond, 0)

	// A partition downs both ends of the link.
	pa.SetDown(true)
	pb.SetDown(true)
	pa.Send([]byte{1})
	pb.Send([]byte{2})
	e.Run()
	if len(a.frames)+len(b.frames) != 0 {
		t.Fatalf("frames crossed a partition")
	}
	// Healing restores both directions.
	pa.SetDown(false)
	pb.SetDown(false)
	pa.Send([]byte{3})
	pb.Send([]byte{4})
	e.Run()
	if len(a.frames) != 1 || len(b.frames) != 1 {
		t.Fatalf("healed partition: a=%d b=%d frames, want 1/1", len(a.frames), len(b.frames))
	}
}

func TestExtraDelayAndJitterReorder(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, _ := Connect(e, a, 0, b, 0, time.Microsecond, 0)
	pa.SetExtraDelay(100*time.Microsecond, 0, 1)
	pa.Send([]byte{1})
	e.Run()
	if want := time.Microsecond + 100*time.Microsecond; b.times[0] != want {
		t.Errorf("delivery at %v, want %v", b.times[0], want)
	}

	// With jitter much larger than the inter-frame gap, some adjacent pair
	// is reordered; with a fixed seed the outcome is reproducible.
	pa.SetExtraDelay(0, time.Millisecond, 42)
	for i := 0; i < 32; i++ {
		pa.Send([]byte{byte(i)})
	}
	e.Run()
	if len(b.frames) != 33 {
		t.Fatalf("delivered %d frames", len(b.frames))
	}
	reordered := false
	for i := 2; i < len(b.frames); i++ {
		if b.frames[i][0] < b.frames[i-1][0] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("jitter produced no reordering")
	}

	// Disarming restores the exact base-delay behavior.
	pa.SetExtraDelay(0, 0, 0)
	start := e.Now()
	pa.Send([]byte{0xFF})
	e.Run()
	if got := b.times[len(b.times)-1] - start; got != time.Microsecond {
		t.Errorf("disarmed delay = %v, want 1us", got)
	}
}

func TestLinkLoss(t *testing.T) {
	e := NewEngine()
	a, b := &sink{eng: e}, &sink{eng: e}
	pa, _ := Connect(e, a, 0, b, 0, 0, 0)
	pa.SetLoss(0.5, 99)
	for i := 0; i < 1000; i++ {
		pa.Send([]byte{byte(i)})
	}
	e.Run()
	if pa.Lost == 0 || pa.Lost == 1000 {
		t.Fatalf("lost = %d, want partial loss", pa.Lost)
	}
	if uint64(len(b.frames))+pa.Lost != 1000 {
		t.Errorf("delivered %d + lost %d != 1000", len(b.frames), pa.Lost)
	}
	// Deterministic for a given seed.
	e2 := NewEngine()
	a2, b2 := &sink{eng: e2}, &sink{eng: e2}
	pa2, _ := Connect(e2, a2, 0, b2, 0, 0, 0)
	pa2.SetLoss(0.5, 99)
	for i := 0; i < 1000; i++ {
		pa2.Send([]byte{byte(i)})
	}
	e2.Run()
	if pa2.Lost != pa.Lost {
		t.Errorf("loss not deterministic: %d vs %d", pa2.Lost, pa.Lost)
	}
}

// forwarder sends every frame it receives on out, times times, unchanged,
// and remembers the latest.
type forwarder struct {
	out   *Port
	times int
	got   []byte
}

func (f *forwarder) Receive(frame []byte, _ *Port) {
	f.got = frame
	for range f.times {
		f.out.Send(frame)
	}
}

// recorder keeps the first two frames since its count was last reset,
// without allocating.
type recorder struct {
	frames [2][]byte
	n      int
}

func (r *recorder) Receive(frame []byte, _ *Port) {
	r.frames[r.n%2] = frame
	r.n++
}

// appender appends to every frame it receives, as a careless receiver
// might, and keeps what it was handed.
type appender struct{ frames [][]byte }

func (a *appender) Receive(frame []byte, _ *Port) {
	a.frames = append(a.frames, frame)
	_ = append(frame, 0xEE, 0xEE, 0xEE, 0xEE)
}

func filled(n int, b byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = b + byte(i)
	}
	return f
}

// TestArenaContract pins what the engine's frame arena promises: a send
// copies, so the caller keeps its buffer; a delivered frame's capacity ends
// at its length; a delivered frame stays byte-exact however long it is kept,
// because slabs are never reused; and a receiver forwarding the frame it is
// handed passes it through once without a copy.
func TestArenaContract(t *testing.T) {
	t.Run("caller keeps its buffer", func(t *testing.T) {
		e := NewEngine()
		s := &sink{eng: e}
		a, _ := Connect(e, discard{}, 0, s, 0, time.Microsecond, 0)
		buf := filled(128, 1)
		a.Send(buf)
		clear(buf)
		buf = filled(128, 2)
		a.SendAfter(time.Microsecond, buf)
		clear(buf) // before the SendAfter event fires
		e.Run()
		if len(s.frames) != 2 || !bytes.Equal(s.frames[0], filled(128, 1)) || !bytes.Equal(s.frames[1], filled(128, 2)) {
			t.Fatalf("delivered %x, want the bytes as sent", s.frames)
		}
	})
	t.Run("append cannot reach the neighbour", func(t *testing.T) {
		e := NewEngine()
		r := &appender{}
		a, _ := Connect(e, discard{}, 0, r, 0, time.Microsecond, 0)
		a.Send(filled(64, 1))
		a.Send(filled(64, 2))
		e.Run()
		for i, f := range r.frames {
			if cap(f) != len(f) {
				t.Errorf("frame %d: cap %d, len %d", i, cap(f), len(f))
			}
		}
		if !bytes.Equal(r.frames[1], filled(64, 2)) {
			t.Fatalf("next frame after an append: %x", r.frames[1])
		}
	})
	t.Run("a kept frame outlives slab turnovers", func(t *testing.T) {
		e := NewEngine()
		s := &sink{eng: e}
		a, _ := Connect(e, discard{}, 0, s, 0, time.Microsecond, 0)
		a.Send(filled(128, 7))
		e.Run()
		kept := s.frames[0]
		for i := range 1000 { // 125 KiB: several 32 KiB slabs
			a.Send(filled(128, byte(i)))
			e.Run()
		}
		if !bytes.Equal(kept, filled(128, 7)) {
			t.Fatalf("kept frame changed: %x", kept)
		}
	})
	t.Run("a forward passes through once", func(t *testing.T) {
		// Frames larger than a slab get a slab each, so every copy is one
		// allocation and AllocsPerRun counts copies.
		big := filled(2*slabSize, 3)
		for _, times := range []int{1, 2} {
			e := NewEngine()
			r := &recorder{}
			fw := &forwarder{times: times}
			a, _ := Connect(e, discard{}, 0, fw, 0, time.Microsecond, 0)
			fw.out, _ = Connect(e, discard{}, 0, r, 0, time.Microsecond, 0)
			if n := testing.AllocsPerRun(50, func() { r.n = 0; a.Send(big); e.Run() }); n != float64(times) {
				t.Errorf("forwarding %d times: %v allocs per frame, want %d (the sender's copy, then one per extra send)", times, n, times)
			}
			got, out := fw.got, r.frames[:times]
			if &out[0][0] != &got[0] {
				t.Errorf("forwarding %d times: the first send copied the delivered frame", times)
			}
			if times == 2 && &out[1][0] == &got[0] {
				t.Error("the second send of a delivered frame was not copied")
			}
			for i, f := range out {
				if !bytes.Equal(f, big) {
					t.Errorf("forwarding %d times: send %d delivered other bytes", times, i)
				}
			}
		}
	})
}

// tally is a Timer that records the args it fires with.
type tally struct{ args []uint64 }

func (c *tally) Fire(arg uint64) { c.args = append(c.args, arg) }

// logger is a receiver that appends a mark to a shared log per frame.
type logger struct {
	log  *[]string
	mark string
}

func (l logger) Receive([]byte, *Port) { *l.log = append(*l.log, l.mark) }

// TestTimerContract pins the typed timer event: a timer, a callback and a
// frame due at one instant fire in the order they were armed (the FIFO tie
// rule of every event kind), a timer fires with the arg it was armed with,
// arming a kept Timer or a prebuilt func allocates nothing, and a negative
// delay clamps to now.
func TestTimerContract(t *testing.T) {
	t.Run("one FIFO order across kinds", func(t *testing.T) {
		e := NewEngine()
		var log []string
		a, _ := Connect(e, discard{}, 0, logger{&log, "send"}, 0, time.Microsecond, 0)
		tm := &tally{}
		e.ScheduleTimer(time.Microsecond, call(func() { log = append(log, "timer") }), 0)
		a.Send([]byte{1})
		e.Schedule(time.Microsecond, func() { log = append(log, "schedule") })
		e.ScheduleTimer(time.Microsecond, tm, 42)
		e.Run()
		if got := strings.Join(log, " "); got != "timer send schedule" {
			t.Errorf("fired %q, want %q", got, "timer send schedule")
		}
		if len(tm.args) != 1 || tm.args[0] != 42 {
			t.Errorf("timer fired with %v, want [42]", tm.args)
		}
	})
	t.Run("arming allocates nothing", func(t *testing.T) {
		e := NewEngine()
		tm := &tally{args: make([]uint64, 0, 1024)}
		if n := testing.AllocsPerRun(100, func() { e.ScheduleTimer(time.Microsecond, tm, 7); e.Step() }); n != 0 {
			t.Errorf("ScheduleTimer+Step of a pointer Timer: %v allocs, want 0", n)
		}
		fired := 0
		fn := func() { fired++ }
		if n := testing.AllocsPerRun(100, func() { e.Schedule(time.Microsecond, fn); e.Step() }); n != 0 {
			t.Errorf("Schedule+Step of a prebuilt func: %v allocs, want 0", n)
		}
		if len(tm.args) != 101 || fired != 101 {
			t.Errorf("fired %d timers and %d funcs, want 101 each", len(tm.args), fired)
		}
	})
	t.Run("negative delay clamps to now", func(t *testing.T) {
		e := NewEngine()
		tm := &tally{}
		e.RunUntil(time.Second)
		e.ScheduleTimer(-time.Second, tm, 1)
		e.Run()
		if e.Now() != time.Second || len(tm.args) != 1 {
			t.Errorf("fired %d times, clock at %v; want once at 1s", len(tm.args), e.Now())
		}
	})
}
