package rmt

import (
	"fmt"
	"math/bits"
)

// RegisterArray is one stage's stateful SRAM: a flat array of 32-bit words
// fronted by a stateful ALU. On a Tofino, register "externs" expose a small
// set of per-packet micro-programs (register actions); the four the paper's
// runtime defines appear here as Read/Write/Increment/MinReadInc (Section
// 3.2 and Appendix A.4).
//
// Counters track data-plane accesses for the experiment harness; the
// Snapshot and Restore methods model control-plane (BFRT-style) register
// access used for state extraction.
//
// Every word carries a parity bit maintained on the write path, modeling
// SRAM ECC: CorruptBit flips stored bits without updating the parity (a
// soft error), and SweepParity is the control-plane scrub pass that finds
// such words. Detection is sweep-only — data-plane reads return corrupted
// values unchecked, as a register extern would. A chunk whose written bit
// is clear holds only zero words and zero parity: every method that can make
// either nonzero sets its chunk's bit, and Zero skips the clear chunks.
type RegisterArray struct {
	words   []uint32
	parity  []uint8  // one parity bit per word, maintained on writes
	written []uint64 // one bit per chunk of 1<<chunkShift = 256 words

	// Access counters (data-plane operations only); Faults is counted by the
	// protection check in front of the array.
	Reads, Writes, Faults uint64
}

const chunkShift = 8

// NewRegisterArray returns an array of n zeroed words.
func NewRegisterArray(n int) *RegisterArray {
	return &RegisterArray{words: make([]uint32, n), parity: make([]uint8, n), written: make([]uint64, n>>chunkShift/64+1)}
}

// mark sets the written bit of addr's chunk.
func (r *RegisterArray) mark(addr uint32) {
	c := addr >> chunkShift
	r.written[c/64] |= 1 << (c % 64)
}

// Len returns the array size in words.
func (r *RegisterArray) Len() int { return len(r.words) }

// InRange reports whether addr is a valid word index.
func (r *RegisterArray) InRange(addr uint32) bool { return int(addr) < len(r.words) }

func parityOf(v uint32) uint8 { return uint8(bits.OnesCount32(v) & 1) }

// Read returns the word at addr.
func (r *RegisterArray) Read(addr uint32) uint32 {
	r.Reads++
	return r.words[addr]
}

// Write stores v at addr.
func (r *RegisterArray) Write(addr uint32, v uint32) {
	r.Writes++
	r.words[addr] = v
	r.parity[addr] = parityOf(v)
	r.mark(addr)
}

// Add adds delta to the word at addr and returns the new value — the
// read-modify-write the stateful ALU performs in one access, counted as a
// write.
func (r *RegisterArray) Add(addr uint32, delta uint32) uint32 {
	r.Writes++
	r.words[addr] += delta
	r.parity[addr] = parityOf(r.words[addr])
	r.mark(addr)
	return r.words[addr]
}

// CorruptBit flips one stored bit at addr without updating the parity — a
// soft error in the SRAM cell. The next SweepParity over the address
// reports it; data-plane reads return the corrupted value silently.
func (r *RegisterArray) CorruptBit(addr uint32, bit uint) error {
	if !r.InRange(addr) || bit > 31 {
		return fmt.Errorf("rmt: corrupt target %d bit %d out of range", addr, bit)
	}
	r.words[addr] ^= 1 << bit
	r.mark(addr)
	return nil
}

// SweepParity scans [lo, hi) and returns the addresses whose stored value
// no longer matches its parity bit — the control-plane scrub pass.
func (r *RegisterArray) SweepParity(lo, hi uint32) []uint32 {
	if int(hi) > len(r.words) {
		hi = uint32(len(r.words))
	}
	var bad []uint32
	for a := lo; a < hi; a++ {
		if parityOf(r.words[a]) != r.parity[a] {
			bad = append(bad, a)
		}
	}
	return bad
}

// Scrub rewrites the parity bit at addr to match the stored value,
// acknowledging the corruption so sweeps stop reporting it. The (corrupt)
// value itself is left in place; callers quarantine the containing block.
func (r *RegisterArray) Scrub(addr uint32) {
	if r.InRange(addr) {
		r.parity[addr] = parityOf(r.words[addr])
	}
}

// Snapshot copies the words in [lo, hi) — the control-plane register-read
// API a controller uses for consistent state extraction.
func (r *RegisterArray) Snapshot(lo, hi uint32) ([]uint32, error) {
	if lo > hi || int(hi) > len(r.words) {
		return nil, fmt.Errorf("rmt: snapshot range [%d,%d) out of bounds (len %d)", lo, hi, len(r.words))
	}
	out := make([]uint32, hi-lo)
	copy(out, r.words[lo:hi])
	return out, nil
}

// Restore writes vals starting at lo — the control-plane register-write API.
func (r *RegisterArray) Restore(lo uint32, vals []uint32) error {
	if int(lo)+len(vals) > len(r.words) {
		return fmt.Errorf("rmt: restore range [%d,%d) out of bounds (len %d)", lo, int(lo)+len(vals), len(r.words))
	}
	copy(r.words[lo:], vals)
	for i := range vals {
		r.parity[int(lo)+i] = parityOf(vals[i])
		r.mark(lo + uint32(i))
	}
	return nil
}

// Zero clears the words in [lo, hi); used when handing a region to a new
// application so no state leaks between tenants. It skips chunks whose
// written bit is clear and clears a bit only when [lo, hi) covers its chunk.
func (r *RegisterArray) Zero(lo, hi uint32) error {
	if lo > hi || int(hi) > len(r.words) {
		return fmt.Errorf("rmt: zero range [%d,%d) out of bounds (len %d)", lo, hi, len(r.words))
	}
	for c := lo >> chunkShift; c<<chunkShift < hi; c++ {
		bit := uint64(1) << (c % 64)
		if r.written[c/64]&bit == 0 {
			continue
		}
		first, end := c<<chunkShift, min((c+1)<<chunkShift, uint32(len(r.words)))
		clo, chi := max(lo, first), min(hi, end)
		clear(r.words[clo:chi])
		clear(r.parity[clo:chi])
		if clo == first && chi == end {
			r.written[c/64] &^= bit
		}
	}
	return nil
}
