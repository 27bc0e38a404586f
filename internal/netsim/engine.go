// Package netsim is a deterministic discrete-event network simulator: a
// virtual clock, an event queue, and point-to-point links with configurable
// propagation delay and bandwidth. It stands in for the paper's 40 Gbps
// testbed (Section 6): the time-series experiments depend on request mixes,
// allocation timelines, and disruption windows — which the virtual clock
// reproduces exactly — not on NIC microarchitecture.
//
// A send copies its frame into the engine's arena of never-reused 32 KiB
// slabs, so a kept frame stays byte-exact; a receiver sending on the frame it
// is handed, unchanged, passes it through uncopied.
//
// Timers and callbacks are one typed event (a Timer fired with the arg it was
// armed with; Schedule arms a func as one), frames the other two.
package netsim

import "time"

// event is one queued event's place in time. What it does sits in the
// engine's payload table at slot, so the heap's sift moves are three
// pointer-free words: no write barriers, nothing for the collector to scan.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	slot int32
	kind eventKind
}

// eventKind says what an event does when it fires: one typed timer kind for
// timers and callbacks, and two for frames. Typing them spares a closure
// allocation per hop and per armed timer.
type eventKind uint8

const (
	eventTimer   eventKind = iota // payload.timer fires with payload.gen (ScheduleTimer, Schedule)
	eventSend                     // payload.port transmits the owned frame (Port.SendAfter)
	eventDeliver                  // payload.port's owner receives the frame (Port.Send)
)

// payload is what one queued event carries.
type payload struct {
	timer Timer
	port  *Port
	frame []byte
	gen   uint64 // eventDeliver: port's down-generation when the frame left; eventTimer: the timer's arg
}

// Timer is what a timer event runs: Fire gets the arg the timer was armed
// with, so one Timer can tell its armings apart.
type Timer interface{ Fire(arg uint64) }

// call is a func armed as a Timer. A func value sits in an interface
// unboxed, so arming one allocates nothing beyond the closure itself.
type call func()

func (f call) Fire(uint64) { f() }

// eventHeap is a hand-rolled binary min-heap over (at, seq). It replaces
// container/heap, whose interface{}-typed Push/Pop box every event onto the
// heap (one allocation per Schedule and another per Step). The sift routines
// operate on the concrete slice directly, so steady-state scheduling reuses
// the slice's capacity and allocates nothing.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and restores the heap invariant by sifting up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	// Sift the relocated root down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// initialEventCap pre-sizes the queue: a busy simulation keeps hundreds of
// in-flight frames and timers, and starting at a realistic capacity avoids
// the early append-growth copies.
const initialEventCap = 256

// Engine is the simulation core. It is not safe for concurrent use: the
// whole simulation runs single-threaded for determinism.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap

	// payloads holds what the queued events carry; free lists the vacant
	// slots, so steady-state traffic reuses them without allocating.
	payloads []payload
	free     []int32

	// arena is the slab frames are copied into; rx is the frame being
	// delivered, which its receiver may send on once without a copy.
	arena, rx []byte
}

const slabSize = 32 << 10 // a few hundred frames per arena allocation

// own returns an engine-owned copy of frame (capacity capped at its length,
// so a receiver's append cannot reach the next frame in the slab), or frame
// itself on its first send by the receiver it is being delivered to.
func (e *Engine) own(frame []byte) []byte {
	if len(frame) > 0 && len(frame) == len(e.rx) && &frame[0] == &e.rx[0] {
		e.rx = nil
		return frame
	}
	if cap(e.arena)-len(e.arena) < len(frame) {
		e.arena = make([]byte, 0, max(slabSize, len(frame)))
	}
	n := len(e.arena)
	e.arena = append(e.arena, frame...)
	return e.arena[n:len(e.arena):len(e.arena)]
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{events: make(eventHeap, 0, initialEventCap)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// ScheduleTimer fires t with arg after delay (clamped to now for
// non-positive delays).
func (e *Engine) ScheduleTimer(delay time.Duration, t Timer, arg uint64) {
	e.enqueue(e.now+max(delay, 0), eventTimer, payload{timer: t, gen: arg})
}

// Schedule runs fn after delay (clamped to now for non-positive delays).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.ScheduleTimer(delay, call(fn), 0)
}

// enqueue queues an event at absolute virtual time t (clamped to now).
// Events of every kind share one (at, seq) order.
func (e *Engine) enqueue(t time.Duration, kind eventKind, p payload) {
	if t < e.now {
		t = e.now
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.payloads[slot] = p
	} else {
		slot = int32(len(e.payloads))
		e.payloads = append(e.payloads, p)
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, slot: slot, kind: kind})
}

// Step executes the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	p := e.payloads[ev.slot]
	e.payloads[ev.slot] = payload{} // do not pin the timer or the frame
	e.free = append(e.free, ev.slot)
	switch ev.kind {
	case eventTimer:
		p.timer.Fire(p.gen)
	case eventSend:
		p.port.transmit(p.frame)
	case eventDeliver:
		e.rx = p.frame
		p.port.deliver(p.frame, p.gen)
		e.rx = nil
	}
	return true
}

// Run drains the event queue.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events up to and including time t, then sets the clock
// to t.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// StepUntil executes events until done reports true, the clock reaches
// limit, or the queue drains. Unlike RunUntil it never moves the clock past
// the last event it ran: a wait that ends early costs no virtual time.
func (e *Engine) StepUntil(limit time.Duration, done func() bool) {
	for e.now < limit && !done() && e.Step() {
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }
