package automata

import (
	"strconv"
	"strings"
)

// CanonicalKey returns a compact string determined by the automaton's
// shape: state count, start state, final set, and present transitions.
// Absent (None) transitions and the NumSyms padding are excluded, so the
// key is stable as the shared alphabet grows: a query compiled before new
// labels were interned keys identically to the same query compiled after.
//
// On canonical DFAs (as produced by Minimize, which numbers states by BFS
// from the start in symbol order and gives ∅ no transitions), two
// automata have equal keys iff their languages are equal — which makes
// the key usable as a language-level plan-cache key (see Query.CacheKey).
func (d *DFA) CanonicalKey() string {
	var b strings.Builder
	b.Grow(16 * d.NumStates())
	b.WriteString(strconv.Itoa(d.NumStates()))
	b.WriteByte('s')
	b.WriteString(strconv.Itoa(int(d.Start)))
	b.WriteByte('f')
	for s, f := range d.Final {
		if f {
			b.WriteString(strconv.Itoa(s))
			b.WriteByte(',')
		}
	}
	b.WriteByte('t')
	for s := range d.Delta {
		for sym, t := range d.Delta[s] {
			if t == None {
				continue
			}
			b.WriteString(strconv.Itoa(s))
			b.WriteByte('.')
			b.WriteString(strconv.Itoa(sym))
			b.WriteByte('.')
			b.WriteString(strconv.Itoa(int(t)))
			b.WriteByte(';')
		}
	}
	return b.String()
}
