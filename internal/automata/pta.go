package automata

import (
	"pathquery/internal/alphabet"
	"pathquery/internal/words"
)

// Mark is the classification a prefix-tree state carries in the RPNI
// red-blue merging framework.
type Mark int8

const (
	// Neutral states are prefixes that are neither accepting nor rejecting.
	Neutral Mark = 0
	// Accepting states end a positive word.
	Accepting Mark = 1
	// Rejecting states end a negative word (used only by word-sample RPNI;
	// the graph learner expresses negatives through the graph instead).
	Rejecting Mark = -1
)

// PTA is a prefix tree acceptor (a tree-shaped DFA accepting exactly the
// positive words, cf. Section 3.2) augmented with Rejecting marks for
// negative words, as used by classic RPNI. States are numbered in the
// canonical order of their access words, which is the merge order RPNI and
// the paper's learner use.
type PTA struct {
	NumSyms int
	Marks   []Mark
	Delta   [][]int32 // [state][sym] successor or None
	Access  []words.Word
}

// BuildPTA constructs the PTA of the given positive and negative words.
// It panics if a word occurs both positively and negatively (callers check
// sample consistency first).
func BuildPTA(numSyms int, pos, neg []words.Word) *PTA {
	k := numSyms
	if len(pos)+len(neg) == 0 {
		return &PTA{NumSyms: k} // no words, no prefixes: not even ε
	}
	// Insert every word into a trie: trie[t·k+sym] is node t's child on
	// sym, or None. Node 0 is the root (ε); ends lists the node each word
	// ends at, positives first. Each symbol adds at most one node, which
	// bounds the trie's size.
	size := 1
	for _, ws := range [2][]words.Word{pos, neg} {
		for _, w := range ws {
			size += len(w)
		}
	}
	trie := noneRow(make([]int32, 0, size*k), k)
	n := 1
	ends := make([]int32, 0, len(pos)+len(neg))
	for _, ws := range [2][]words.Word{pos, neg} {
		for _, w := range ws {
			t := int32(0)
			for _, sym := range w {
				i := int(t)*k + int(sym)
				if trie[i] == None {
					trie[i] = int32(n)
					trie = noneRow(trie, k)
					n++
				}
				t = trie[i]
			}
			ends = append(ends, t)
		}
	}

	// Number the nodes breadth-first, taking symbols in increasing order:
	// the canonical (shortlex) order of their access words. order[s] is
	// the trie node of state s and id its inverse.
	p := &PTA{
		NumSyms: k,
		Marks:   make([]Mark, n),
		Delta:   make([][]int32, n),
		Access:  make([]words.Word, n),
	}
	order := make([]int32, 1, n)
	id := make([]int32, n)
	slab := make([]int32, n*k)
	// Access words are cut, capacity-capped, from one growing buffer.
	var buf words.Word
	p.Access[0] = words.Word{}
	for s := 0; s < n; s++ {
		row := slab[s*k : (s+1)*k : (s+1)*k]
		t := int(order[s])
		for sym, c := range trie[t*k : (t+1)*k] {
			if c == None {
				row[sym] = None
				continue
			}
			id[c] = int32(len(order))
			order = append(order, c)
			row[sym] = id[c]
			start := len(buf)
			buf = append(append(buf, p.Access[s]...), alphabet.Symbol(sym))
			p.Access[id[c]] = buf[start:len(buf):len(buf)]
		}
		p.Delta[s] = row
	}
	for _, t := range ends[:len(pos)] {
		p.Marks[id[t]] = Accepting
	}
	for _, t := range ends[len(pos):] {
		if p.Marks[id[t]] == Accepting {
			panic("automata: word is both positive and negative in PTA")
		}
		p.Marks[id[t]] = Rejecting
	}
	return p
}

// noneRow appends k absent transitions to trie.
func noneRow(trie []int32, k int) []int32 {
	for range k {
		trie = append(trie, None)
	}
	return trie
}

// NumStates returns the number of PTA states.
func (p *PTA) NumStates() int { return len(p.Marks) }

// DFA returns the PTA as a partial DFA accepting exactly the positive words.
func (p *PTA) DFA() *DFA {
	d := NewDFA(p.NumStates(), p.NumSyms)
	d.Start = 0
	for s := range p.Marks {
		d.Final[s] = p.Marks[s] == Accepting
		copy(d.Delta[s], p.Delta[s])
	}
	return d
}
