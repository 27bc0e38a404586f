package rmt

import (
	"slices"
	"testing"
)

// FuzzRegisterArrayOps runs random sequences of the register array's
// mutating operations against a naive model — plain word and parity
// slices, where Zero clears every word in its range — and after every op
// compares every word and the parity sweep. It is the net under Zero's
// written-chunk bits: a method that can make a word or parity bit nonzero
// without setting its chunk's bit, or a partial Zero that clears a chunk's
// bit, leaves a word the model has cleared.
//
// data[0] picks the array length; each further 8 bytes are one op: kind,
// two addresses (a chunk index and a signed offset from its start, so
// ranges often straddle chunk edges) and a value byte.
func FuzzRegisterArrayOps(f *testing.F) {
	f.Add(regOps(0, // 257 words: the last chunk holds one word
		regOp{opWrite, 0, 5, 0, 0, 9}, regOp{opWrite, 1, 0, 0, 0, 3}, regOp{opZero, 0, 0, 2, 0, 0},
		regOp{opAdd, 0, 1, 0, 0, 1}, regOp{opZero, 0, 3, 1, 0, 0}, regOp{opZero, 0, 0, 1, 0, 0}))
	f.Add(regOps(1, // 1000 words: Restore across a chunk edge, then a partial Zero, then the rest
		regOp{opRestore, 1, -20, 1, 20, 7}, regOp{opZero, 1, -10, 1, 10, 0}, regOp{opZero, 0, 0, 4, 0, 0},
		regOp{opRestore, 3, 100, 4, 0, 5}, regOp{opZero, 4, 0, 3, 0, 0}, regOp{opZero, 3, 0, 4, 0, 0}))
	f.Add(regOps(2, // 1024 words: a soft error, a scrub, an empty Zero, a clear
		regOp{opCorrupt, 2, 17, 0, 0, 31}, regOp{opZero, 2, 17, 2, 17, 0}, regOp{opScrub, 2, 17, 0, 0, 0},
		regOp{opCorrupt, 3, 1, 0, 0, 4}, regOp{opZero, 3, 0, 4, 0, 0}, regOp{opAdd, 1, 0, 0, 0, 0}))
	f.Add(regOps(3, // 94 208 words: single words, a partly covered chunk kept set, a full clear
		regOp{opWrite, 100, 0, 0, 0, 1}, regOp{opZero, 100, 0, 100, 1, 0}, regOp{opWrite, 101, 200 - 256, 0, 0, 2},
		regOp{opZero, 100, 0, 100, 100, 0}, regOp{opZero, 100, 0, 101, 0, 0}, regOp{opZero, 367, 0, 368, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		m := newRegModel([]int{257, 1000, 1024, 94208}[data[0]%4])
		for i := 1; i+8 <= min(len(data), 1+8*64); i += 8 {
			m.step(t, data[i:i+8])
			m.check(t, data[i])
		}
	})
}

const (
	opWrite = iota
	opAdd
	opRestore
	opCorrupt
	opScrub
	opZero
	numRegOps
)

// regOp is one decoded op: addresses are chunk*256 + off, clamped to the
// array.
type regOp struct {
	kind   byte
	chunk1 uint16
	off1   int8
	chunk2 uint16
	off2   int8
	v      byte
}

func regOps(shape byte, ops ...regOp) []byte {
	out := []byte{shape}
	for _, o := range ops {
		out = append(out, o.kind, byte(o.chunk1>>8), byte(o.chunk1), byte(o.off1),
			byte(o.chunk2>>8), byte(o.chunk2), byte(o.off2), o.v)
	}
	return out
}

type regModel struct {
	r      *RegisterArray
	words  []uint32
	parity []uint8
}

func newRegModel(n int) *regModel {
	return &regModel{r: NewRegisterArray(n), words: make([]uint32, n), parity: make([]uint8, n)}
}

// addr decodes a chunk index and signed offset into an address in [0, n].
func (m *regModel) addr(hi, lo, off byte) uint32 {
	n := len(m.words)
	chunks := (n + 255) / 256
	a := (int(hi)<<8|int(lo))%(chunks+1)*256 + int(int8(off))
	return uint32(min(max(a, 0), n))
}

func (m *regModel) step(t *testing.T, op []byte) {
	n := uint32(len(m.words))
	lo, hi := m.addr(op[1], op[2], op[3]), m.addr(op[4], op[5], op[6])
	w := min(lo, n-1) // a single-word target
	v := uint32(op[7]) * 0x9E3779B1
	switch op[0] % numRegOps {
	case opWrite:
		m.r.Write(w, v)
		m.words[w], m.parity[w] = v, parityOf(v)
	case opAdd:
		if got, want := m.r.Add(w, v), m.words[w]+v; got != want {
			t.Fatalf("Add(%d) = %#x, want %#x", w, got, want)
		}
		m.words[w] += v
		m.parity[w] = parityOf(m.words[w])
	case opRestore:
		if lo > hi {
			lo, hi = hi, lo
		}
		vals := make([]uint32, hi-lo)
		for i := range vals {
			if op[7] != 0 && i%3 != 1 {
				vals[i] = v + uint32(i)
			}
		}
		if err := m.r.Restore(lo, vals); err != nil {
			t.Fatal(err)
		}
		copy(m.words[lo:], vals)
		for i, x := range vals {
			m.parity[int(lo)+i] = parityOf(x)
		}
	case opCorrupt:
		bit := uint(op[7] % 32)
		if err := m.r.CorruptBit(w, bit); err != nil {
			t.Fatal(err)
		}
		m.words[w] ^= 1 << bit
	case opScrub:
		m.r.Scrub(w)
		m.parity[w] = parityOf(m.words[w])
	case opZero:
		err := m.r.Zero(lo, hi)
		if lo > hi {
			if err == nil {
				t.Fatalf("Zero(%d, %d) accepted an inverted range", lo, hi)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		clear(m.words[lo:hi])
		clear(m.parity[lo:hi])
	}
}

func (m *regModel) check(t *testing.T, kind byte) {
	n := uint32(len(m.words))
	got, err := m.r.Snapshot(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != m.words[i] {
			t.Fatalf("after op %d: word %d = %#x, model %#x", kind%numRegOps, i, got[i], m.words[i])
		}
	}
	var want []uint32
	for a := range n {
		if parityOf(m.words[a]) != m.parity[a] {
			want = append(want, a)
		}
	}
	if bad := m.r.SweepParity(0, n); !slices.Equal(bad, want) {
		t.Fatalf("after op %d: SweepParity = %v, model %v", kind%numRegOps, bad, want)
	}
}
