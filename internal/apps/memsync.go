package apps

import (
	"time"

	"activermt/internal/client"
	"activermt/internal/compiler"
	"activermt/internal/isa"
	"activermt/internal/packet"
)

// Memory-synchronization programs (Appendix C): RDMA-style primitives that
// read and write one allocated word over the data plane. Reads and writes
// are idempotent, so clients retransmit on timeout; every packet replies
// via RTS, and packets that fault are dropped and simply never answered.

// memReadProg is Listing 5 reshaped onto the shared [access@2] skeleton.
var memReadProg = isa.MustAssemble("mem-read", `
.arg ADDR 2
NOP
MAR_LOAD $ADDR
MEM_READ
MBR_STORE 0
RTS
RETURN
`)

// memWriteProg is Listing 6: MBR is loaded before the access.
var memWriteProg = isa.MustAssemble("mem-write", `
.arg VAL 0
.arg ADDR 2
MBR_LOAD $VAL
MAR_LOAD $ADDR
MEM_WRITE
RTS
RETURN
`)

// MemSyncService defines a single-word read/write service over one elastic
// region (demand in blocks; 0 = elastic).
func MemSyncService(demand int) *client.Service {
	return &client.Service{
		Name: "memsync",
		Main: "main",
		Templates: map[string]*isa.Program{
			"main":  memReadProg,
			"write": memWriteProg,
		},
		Specs:   []compiler.AccessSpec{{Demand: demand}},
		Elastic: demand == 0,
	}
}

// memRetransmitAfter is MemSync's idempotent-retry timeout (virtual time).
const memRetransmitAfter = 2 * time.Millisecond

// MemSync drives the Appendix C primitives with timeout-based retransmit.
type MemSync struct {
	Client *client.Client

	pending                map[uint32]*memOp // keyed by address
	Reads, Writes, Retries uint64
}

type memOp struct {
	write bool
	value uint32
	done  func(value uint32)
	acked bool
}

// NewMemSync wires the driver; Bind must be called with the shim client.
func NewMemSync() *MemSync {
	return &MemSync{pending: make(map[uint32]*memOp)}
}

// Bind attaches the shim client.
func (m *MemSync) Bind(cl *client.Client) {
	m.Client = cl
	cl.Handler = m.handle
}

// Region returns the granted word range.
func (m *MemSync) Region() (lo, hi uint32, ok bool) {
	pl := m.Client.Placement()
	if pl == nil || len(pl.Accesses) == 0 {
		return 0, 0, false
	}
	return pl.Accesses[0].Range.Lo, pl.Accesses[0].Range.Hi, true
}

// Read fetches the word at the region-relative index; done is called with
// the value when the RTS reply lands.
func (m *MemSync) Read(index uint32, done func(value uint32)) {
	lo, _, ok := m.Region()
	if !ok {
		return
	}
	addr := lo + index
	m.pending[addr] = &memOp{done: done}
	m.Reads++
	m.send(addr)
}

// Write stores value at the region-relative index; done is called on the
// RTS acknowledgment.
func (m *MemSync) Write(index, value uint32, done func(value uint32)) {
	lo, _, ok := m.Region()
	if !ok {
		return
	}
	addr := lo + index
	m.pending[addr] = &memOp{write: true, value: value, done: done}
	m.Writes++
	m.send(addr)
}

func (m *MemSync) send(addr uint32) {
	op, ok := m.pending[addr]
	if !ok || op.acked {
		return
	}
	name := "main"
	args := [4]uint32{0, 0, addr, 0}
	if op.write {
		name = "write"
		args[0] = op.value
	}
	// FlagMemSync lets extraction proceed during a reallocation window.
	_ = m.Client.SendProgram(name, args, packet.FlagMemSync, nil, m.Client.MAC())
	m.scheduleRetry(addr)
}

func (m *MemSync) scheduleRetry(addr uint32) {
	eng := m.Client.Engine()
	eng.Schedule(memRetransmitAfter, func() {
		if op, ok := m.pending[addr]; ok && !op.acked {
			m.Retries++
			m.send(addr)
		}
	})
}

// handle consumes RTS replies: the read value (or written value) is in
// data[0], the address in data[2].
func (m *MemSync) handle(cl *client.Client, f *packet.Frame) {
	if f.Active == nil || f.Active.Header.Flags&packet.FlagRTS == 0 {
		return
	}
	addr := f.Active.Args[2]
	op, ok := m.pending[addr]
	if !ok || op.acked {
		return
	}
	op.acked = true
	delete(m.pending, addr)
	if op.done != nil {
		op.done(f.Active.Args[0])
	}
}

// Outstanding returns the number of unacknowledged operations.
func (m *MemSync) Outstanding() int { return len(m.pending) }
