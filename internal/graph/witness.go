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
// A WitnessBFS holds a search's visited set and queue. The zero value is
// ready to use, and reusing one across searches keeps their storage: a
// coverage index runs the searches of every positive on one. It is not
// safe for concurrent use.
type WitnessBFS struct {
	seen map[uint64]bool
	// queue holds the discovered states in discovery order; each records
	// the symbol and queue index it was discovered from, so the word of
	// an accepted state is read back along the chain.
	queue []witnessItem
	steps []WitnessStep
}

// WitnessStep is one successor reported by an expand callback: the state
// (A, B) reached on Sym.
type WitnessStep struct {
	Sym  alphabet.Symbol
	A, B int32
}

type witnessItem struct {
	a, b   int32
	parent int32 // queue index of the state discovered from; -1 at depth 0
	depth  int32
	sym    alphabet.Symbol
}

// Search returns the canonical-minimal accepted word.
//
// starts are the depth-0 states, visited in order with the word ε. expand
// must append the successors of a state to steps grouped by symbol in
// ascending symbol order (CSR segments and SymbolsOf already are) and
// return the slice — that is what keeps the enumeration canonical. accept
// is evaluated exactly once per distinct state, at discovery; the word
// under which a state is first discovered is its canonical-minimal
// witness, so the first accepted discovery yields the overall
// canonical-minimal accepted word. depth bounds the word length (< 0
// means unbounded; termination is then guaranteed by the finiteness of
// the state space).
//
// Returns (word, true, _) for the canonical-minimal accepted word, or
// (nil, false, cut) when no accepted word exists within the bound. cut
// reports whether the bound left a state unexpanded: a search that
// found nothing and was not cut ran out of states, so no accepted word
// exists at any length.
func (bfs *WitnessBFS) Search(depth int, starts [][2]int32,
	accept func(a, b int32) bool,
	expand func(a, b int32, steps []WitnessStep) []WitnessStep,
) (word words.Word, found, cut bool) {
	if bfs.seen == nil {
		bfs.seen = make(map[uint64]bool, len(starts))
	} else {
		clear(bfs.seen)
	}
	seen, queue := bfs.seen, bfs.queue[:0]
	defer func() { bfs.queue = queue[:0] }()
	key := func(a, b int32) uint64 {
		return uint64(uint32(b))<<32 | uint64(uint32(a))
	}
	for _, st := range starts {
		k := key(st[0], st[1])
		if seen[k] {
			continue
		}
		seen[k] = true
		if accept(st[0], st[1]) {
			return words.Epsilon, true, false
		}
		queue = append(queue, witnessItem{a: st[0], b: st[1], parent: -1})
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if depth >= 0 && int(cur.depth) >= depth {
			cut = true
			continue
		}
		bfs.steps = expand(cur.a, cur.b, bfs.steps[:0])
		for _, st := range bfs.steps {
			k := key(st.A, st.B)
			if seen[k] {
				continue
			}
			seen[k] = true
			if accept(st.A, st.B) {
				// Read the word back along the discovery chain.
				word = make(words.Word, cur.depth+1)
				word[cur.depth] = st.Sym
				for i := qi; queue[i].parent >= 0; i = int(queue[i].parent) {
					word[queue[i].depth-1] = queue[i].sym
				}
				return word, true, false
			}
			queue = append(queue, witnessItem{a: st.A, b: st.B, parent: int32(qi), depth: cur.depth + 1, sym: st.Sym})
		}
	}
	return nil, false, cut
}
