package netsim

import (
	"testing"
	"time"
)

// TestEngineHeapStress cross-checks the hand-rolled heap against a large
// interleaved schedule/step workload: events must still drain in (time, seq)
// order after thousands of pushes and pops.
func TestEngineHeapStress(t *testing.T) {
	e := NewEngine()
	const n = 5000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		// A deterministic scatter of delays with plenty of ties.
		d := time.Duration((i*7919)%101) * time.Microsecond
		e.Schedule(d, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	// Ties broke FIFO: indices with equal delay must appear in submit order.
	lastAt := make(map[int]int) // delay bucket -> last index seen
	for _, i := range got {
		d := (i * 7919) % 101
		if prev, ok := lastAt[d]; ok && prev > i {
			t.Fatalf("FIFO tie broken: index %d ran after %d at delay %d", i, prev, d)
		}
		lastAt[d] = i
	}
}

// BenchmarkEngineSchedule measures steady-state schedule+step cost. With the
// hand-rolled heap this must not allocate per event: the one closure the
// benchmark itself creates is hoisted out of the loop, so allocs/op reflects
// only the queue.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Warm the queue to a realistic in-flight depth.
	for i := 0; i < 128; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%64)*time.Microsecond, fn)
		e.Step()
	}
}

type discard struct{}

func (discard) Receive([]byte, *Port) {}

// TestPortSendZeroAlloc gates the frame-event path: a Send (or a SendAfter)
// and the Steps that carry it to the peer endpoint allocate nothing once the
// queue and the frame table have grown to the in-flight depth. The copy into
// the arena allocates one 32 KiB slab per 256 frames of 128 B, and
// AllocsPerRun reports whole allocations per run, so it reads 0; a copy that
// allocated per frame would read 1.
func TestPortSendZeroAlloc(t *testing.T) {
	e := NewEngine()
	a, _ := Connect(e, discard{}, 0, discard{}, 0, 5*time.Microsecond, 40e9)
	frame := make([]byte, 128)
	for i := 0; i < 64; i++ { // in-flight depth the runs below never exceed
		a.Send(frame)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		a.Send(frame)
		e.Step()
	}); n != 0 {
		t.Errorf("Send+Step: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a.SendAfter(time.Microsecond, frame)
		e.Step()
		e.Step()
	}); n != 0 {
		t.Errorf("SendAfter+Step+Step: %v allocs, want 0", n)
	}
}

// BenchmarkPortSend is one link hop: a send and the step that delivers it,
// the unit the system benchmark reports as netsim.event_ns.
func BenchmarkPortSend(b *testing.B) {
	e := NewEngine()
	a, _ := Connect(e, discard{}, 0, discard{}, 0, 5*time.Microsecond, 40e9)
	frame := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(frame)
		e.Step()
	}
}

// BenchmarkPortSendBurst keeps sixteen frames in flight, the burst depth of
// the system benchmark's workloads, so heap sifts are part of the figure.
func BenchmarkPortSendBurst(b *testing.B) {
	e := NewEngine()
	a, _ := Connect(e, discard{}, 0, discard{}, 0, 5*time.Microsecond, 40e9)
	frame := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 16 {
		for j := 0; j < 16; j++ {
			a.Send(frame)
		}
		e.Run()
	}
}
