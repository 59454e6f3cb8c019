// Package bitset provides dense []uint64 bitsets for the product
// constructions in internal/graph: visited sets over the |V|·|Q| product
// space, per-node state masks of the masked propagation kernel, and
// per-call successor dedup in Step. The representation is a plain word
// slice so callers can pool and resize scratch without indirection.
package bitset

import "math/bits"

// Bits is a fixed-capacity bitset over indices 0..64*len(b)-1.
type Bits []uint64

// WordsFor returns the number of words needed for n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// Make returns a zeroed bitset with capacity for n bits.
func Make(n int) Bits { return make(Bits, WordsFor(n)) }

// Grow returns b if it already holds n bits, else a fresh zeroed bitset
// with a quarter more room, so a slowly growing n (a graph gaining nodes
// between evaluations) reallocates only now and then. The returned bitset
// is all-zero only if b was (pool discipline: clear before reuse).
func (b Bits) Grow(n int) Bits {
	if w := WordsFor(n); w > len(b) {
		return make(Bits, w+w/4)
	}
	return b
}

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// TrySet sets bit i and reports whether it was previously unset.
func (b Bits) TrySet(i int) bool {
	w, mask := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&mask != 0 {
		return false
	}
	b[w] |= mask
	return true
}

// ClearAll zeroes every word.
func (b Bits) ClearAll() { clear(b) }

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (b Bits) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Marker wraps a pooled bitset for the mark-then-drain dedup idiom of the
// graph substrate: TrySet tracks the touched word range and count, Drain
// emits the marked indices in ascending order while clearing them — so
// draining scans only the words actually used and the underlying bitset
// returns to its pool all-zero.
type Marker struct {
	bits   Bits
	lo, hi int
	n      int
}

// NewMarker returns a Marker over b, which must be all-zero.
func NewMarker(b Bits) Marker { return Marker{bits: b, lo: len(b), hi: -1} }

// TrySet marks index i and reports whether it was previously unmarked.
func (m *Marker) TrySet(i int) bool {
	w, mask := i>>6, uint64(1)<<(uint(i)&63)
	if m.bits[w]&mask != 0 {
		return false
	}
	m.bits[w] |= mask
	if w < m.lo {
		m.lo = w
	}
	if w > m.hi {
		m.hi = w
	}
	m.n++
	return true
}

// Count returns the number of marked indices.
func (m *Marker) Count() int { return m.n }

// Drain calls fn for every marked index in ascending order and clears the
// marks, restoring the underlying bitset's all-zero pool invariant.
func (m *Marker) Drain(fn func(i int)) {
	for w := m.lo; w <= m.hi; w++ {
		word := m.bits[w]
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
		m.bits[w] = 0
	}
	m.lo, m.hi, m.n = len(m.bits), -1, 0
}
