package graph

import (
	"pathquery/internal/alphabet"
	"pathquery/internal/words"
)

// WitnessBFS is the canonical-order word search shared by every
// witness-producing evaluator: scp.Coverage.Smallest (SCP extraction and,
// unbounded, path-language inclusion) and the binary learner's smallest
// pair-path. Each of these used to carry its own copy of the same loop —
// a BFS over a product of two opaque int32 components (a graph node or
// interned node set on the left, a determinized right-language state on
// the right) that enumerates words in the canonical length-lexicographic
// order of Section 2 and returns the first accepted one.
//
// starts are the depth-0 states, visited in order with the word ε. expand
// must emit the successors of a state grouped by symbol in ascending
// symbol order (CSR segments and SymbolsOf already are) — that is what
// keeps the enumeration canonical. accept is evaluated exactly once per
// distinct state, at discovery; the word under which a state is first
// discovered is its canonical-minimal witness, so the first accepted
// discovery yields the overall canonical-minimal accepted word. depth
// bounds the word length (< 0 means unbounded; termination is then
// guaranteed by the finiteness of the state space).
//
// Returns (word, true, _) for the canonical-minimal accepted word, or
// (nil, false, cut) when no accepted word exists within the bound. cut
// reports whether the bound left a state unexpanded: a search that
// found nothing and was not cut ran out of states, so no accepted word
// exists at any length.
func WitnessBFS(depth int, starts [][2]int32,
	accept func(a, b int32) bool,
	expand func(a, b int32, emit func(sym alphabet.Symbol, a2, b2 int32)),
) (word words.Word, found, cut bool) {
	type item struct {
		a, b int32
		word words.Word
	}
	key := func(a, b int32) uint64 {
		return uint64(uint32(b))<<32 | uint64(uint32(a))
	}
	seen := make(map[uint64]bool, len(starts))
	queue := make([]item, 0, len(starts))
	for _, st := range starts {
		k := key(st[0], st[1])
		if seen[k] {
			continue
		}
		seen[k] = true
		if accept(st[0], st[1]) {
			return words.Epsilon, true, false
		}
		queue = append(queue, item{st[0], st[1], words.Epsilon})
	}

	var (
		cur  item
		w    words.Word // word for the current (state, symbol) expansion
		wsym alphabet.Symbol
	)
	// One emit closure for the whole search: successors of one symbol
	// share a single appended word.
	emit := func(sym alphabet.Symbol, a2, b2 int32) {
		if found {
			return
		}
		k := key(a2, b2)
		if seen[k] {
			return
		}
		seen[k] = true
		if w == nil || wsym != sym {
			w, wsym = words.Append(cur.word, sym), sym
		}
		if accept(a2, b2) {
			word, found = w, true
			return
		}
		queue = append(queue, item{a2, b2, w})
	}
	for qi := 0; qi < len(queue) && !found; qi++ {
		cur = queue[qi]
		if depth >= 0 && len(cur.word) >= depth {
			cut = true
			continue
		}
		w = nil
		expand(cur.a, cur.b, emit)
	}
	return word, found, cut
}
