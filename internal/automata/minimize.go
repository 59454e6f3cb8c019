package automata

import "math/bits"

// Minimize returns the canonical DFA of L(d): the minimal DFA of the
// language without dead states, numbered by BFS from the start taking
// symbols in increasing order. Two DFAs produced by Minimize are
// structurally Equal iff their languages are equal, which is how the
// paper's "learner returns q" claims are tested. The canonical DFA of ∅
// is a single non-final state with no transitions, whatever the alphabet's
// size, so its CanonicalKey does not change as labels are interned.
//
// Minimize runs on flat integer arrays. The live states (the states Trim
// keeps) become rows 0..m-1 of one transition table, and every absent
// transition and every transition into a dead state goes to one sink, m.
// The sink is a class of its own from the start, since every live state
// accepts some word. Moore refinement then splits classes until a round
// splits none: a round keys each live state by a hash of its class and
// its successors' classes, and confirms a hash hit against the first
// state of the class it hit. A round is O(m·|Σ|) and there are at most m
// rounds; the automata minimized here (learned quotients and compiled
// queries) have a few to a few hundred states. The classes other than
// the sink are numbered by BFS straight into the output.
func Minimize(d *DFA) *DFA {
	n, k := d.NumStates(), d.NumSyms
	live := d.live()
	if !live[d.Start] {
		return NewDFA(1, k)
	}
	m := 0
	for _, l := range live {
		if l {
			m++
		}
	}
	// The int32 work arrays are cut from one slab. id[s] is live state
	// s's row and orig[i] the state of row i; the rest are described
	// where they are first written.
	tbits := bits.Len(uint(2*m - 1))
	ws := make([]int32, n+m+m*k+3*(m+1)+1<<tbits)
	cut := func(size int) []int32 {
		s := ws[:size:size]
		ws = ws[size:]
		return s
	}
	id, orig, delta := cut(n), cut(m)[:0], cut(m*k)
	class, next, rep, table := cut(m+1), cut(m+1), cut(m+1), cut(1<<tbits)
	for s := range n {
		if live[s] {
			id[s] = int32(len(orig))
			orig = append(orig, int32(s))
		}
	}
	sink := int32(m)
	for i, s := range orig {
		row := delta[i*k : (i+1)*k]
		for sym, t := range d.Delta[s] {
			if t != None && live[t] {
				row[sym] = id[t]
			} else {
				row[sym] = sink
			}
		}
	}

	// class[i] is row i's class. Class 0 is the sink's alone; the first
	// partition adds the live non-final and the live final states, each
	// class numbered when it first occurs, so count is exact.
	count := int32(1)
	var of [2]int32 // the class of non-final (0) and final (1) rows
	for i, s := range orig {
		f := 0
		if d.Final[s] {
			f = 1
		}
		if of[f] == 0 {
			of[f] = count
			count++
		}
		class[i] = of[f]
	}

	// Each round numbers the new classes in next through an open-addressed
	// table of class ids; rep[c] is the first row of new class c and
	// sig[c] its signature's hash.
	sig := make([]uint64, m+1)
	mask := uint64(len(table) - 1)
	for {
		for i := range table {
			table[i] = None
		}
		fresh := int32(1) // next[sink] stays 0
		for s := int32(0); s < sink; s++ {
			h := signature(class, delta[int(s)*k:int(s+1)*k], class[s])
			for i := h >> (64 - tbits); ; i = (i + 1) & mask {
				c := table[i]
				if c == None {
					c = fresh
					fresh++
					table[i], rep[c], sig[c] = c, s, h
				} else if sig[c] != h || !sameSignature(class, delta, k, s, rep[c]) {
					continue
				}
				next[s] = c
				break
			}
		}
		class, next = next, class
		if fresh == count {
			break // every class survived whole: the partition is stable
		}
		count = fresh
	}

	// Number the classes by BFS from the start's, skipping the sink.
	// number reuses the table and order the free class array.
	out := NewDFA(int(count)-1, k)
	number := table[:count]
	for c := range number {
		number[c] = None
	}
	order := next[:1]
	order[0] = class[id[d.Start]]
	number[order[0]] = 0
	for i := 0; i < len(order); i++ {
		r := int(rep[order[i]])
		out.Final[i] = d.Final[orig[r]]
		for sym, t := range delta[r*k : (r+1)*k] {
			c := class[t]
			if c == 0 {
				continue
			}
			if number[c] == None {
				number[c] = int32(len(order))
				order = append(order, c)
			}
			out.Delta[i][sym] = number[c]
		}
	}
	return out
}

// signature hashes (own, class[row[0]], class[row[1]], ...) by FNV-1a over
// the class ids.
func signature(class, row []int32, own int32) uint64 {
	h := (14695981039346656037 ^ uint64(own)) * 1099511628211
	for _, t := range row {
		h = (h ^ uint64(class[t])) * 1099511628211
	}
	return h
}

// sameSignature reports whether rows s and r share their class and their
// successors' classes.
func sameSignature(class, delta []int32, k int, s, r int32) bool {
	if class[s] != class[r] {
		return false
	}
	a, b := delta[int(s)*k:int(s+1)*k], delta[int(r)*k:int(r+1)*k]
	for i, t := range a {
		if class[t] != class[b[i]] {
			return false
		}
	}
	return true
}

// Size returns the paper's size measure for the language of d: the number
// of states of its canonical DFA.
func Size(d *DFA) int {
	return Minimize(d).NumStates()
}
