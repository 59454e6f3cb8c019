// Package automata implements the word-automata substrate of the paper
// (Section 2 and the appendix): NFAs, DFAs, Thompson construction, subset
// construction, Moore minimization with canonical numbering, products,
// emptiness, inclusion and equivalence tests, prefix tree acceptors, the
// RPNI-style deterministic merge-fold, the prefix-free transform, and
// DFA→regex extraction.
//
// Queries are represented by their canonical DFA (the unique smallest DFA,
// with states numbered in canonical BFS order), so the size of a query is
// the number of canonical-DFA states and "the learner returns q" is testable
// as structural equality.
package automata

import (
	"fmt"
	"sort"

	"pathquery/internal/alphabet"
	"pathquery/internal/words"
)

// NFA is a nondeterministic finite word automaton with ε-transitions
// (appendix A of the paper). States are dense ints 0..NumStates-1.
type NFA struct {
	NumSyms int
	Starts  []int32
	Final   []bool
	// Delta[s] maps a symbol to the successor states of s on that symbol.
	Delta []map[alphabet.Symbol][]int32
	// Eps[s] lists the ε-successors of s.
	Eps [][]int32
}

// NewNFA returns an NFA with n states and no transitions.
func NewNFA(n, numSyms int) *NFA {
	return &NFA{
		NumSyms: numSyms,
		Final:   make([]bool, n),
		Delta:   make([]map[alphabet.Symbol][]int32, n),
		Eps:     make([][]int32, n),
	}
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.Final) }

// AddState appends a fresh state and returns its id.
func (n *NFA) AddState() int32 {
	n.Final = append(n.Final, false)
	n.Delta = append(n.Delta, nil)
	n.Eps = append(n.Eps, nil)
	return int32(len(n.Final) - 1)
}

// AddTransition adds from --sym--> to.
func (n *NFA) AddTransition(from int32, sym alphabet.Symbol, to int32) {
	if n.Delta[from] == nil {
		n.Delta[from] = make(map[alphabet.Symbol][]int32)
	}
	n.Delta[from][sym] = append(n.Delta[from][sym], to)
}

// AddEps adds from --ε--> to.
func (n *NFA) AddEps(from, to int32) {
	n.Eps[from] = append(n.Eps[from], to)
}

// closure expands set (a sorted or unsorted slice of states) with all states
// reachable via ε-transitions. The result is sorted and deduplicated.
func (n *NFA) closure(set []int32) []int32 {
	seen := make(map[int32]bool, len(set))
	stack := make([]int32, 0, len(set))
	for _, s := range set {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.Eps[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int32, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// step returns the sorted ε-closed successor set of set on sym.
func (n *NFA) step(set []int32, sym alphabet.Symbol) []int32 {
	var next []int32
	for _, s := range set {
		next = append(next, n.Delta[s][sym]...)
	}
	if len(next) == 0 {
		return nil
	}
	return n.closure(next)
}

// Accepts reports whether the NFA accepts w.
func (n *NFA) Accepts(w words.Word) bool {
	cur := n.closure(n.Starts)
	for _, sym := range w {
		cur = n.step(cur, sym)
		if len(cur) == 0 {
			return false
		}
	}
	for _, s := range cur {
		if n.Final[s] {
			return true
		}
	}
	return false
}

// IsEmpty reports whether L(n) = ∅, by forward reachability.
func (n *NFA) IsEmpty() bool {
	seen := make([]bool, n.NumStates())
	stack := append([]int32(nil), n.Starts...)
	for _, s := range stack {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Final[s] {
			return false
		}
		push := func(t int32) {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
		for _, t := range n.Eps[s] {
			push(t)
		}
		for _, ts := range n.Delta[s] {
			for _, t := range ts {
				push(t)
			}
		}
	}
	return true
}

// IntersectionEmpty reports whether L(a) ∩ L(b) = ∅ for ε-free views of the
// two NFAs (ε-transitions are handled via closures). It runs a BFS over the
// product of ε-closed state sets; worst case exponential only through the
// closure sizes, linear in the product of state counts in practice.
func IntersectionEmpty(a, b *NFA) bool {
	type pair struct{ x, y int32 }
	// Work on ε-eliminated products: track pairs of individual states with
	// closures expanded up front.
	startA := a.closure(a.Starts)
	startB := b.closure(b.Starts)
	seen := make(map[pair]bool)
	var queue []pair
	push := func(x, y int32) {
		p := pair{x, y}
		if !seen[p] {
			seen[p] = true
			queue = append(queue, p)
		}
	}
	for _, x := range startA {
		for _, y := range startB {
			push(x, y)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if a.Final[p.x] && b.Final[p.y] {
			return false
		}
		for sym, xs := range a.Delta[p.x] {
			ys := b.Delta[p.y][sym]
			if len(ys) == 0 {
				continue
			}
			for _, nx := range a.closure(xs) {
				for _, ny := range b.closure(ys) {
					push(nx, ny)
				}
			}
		}
	}
	return true
}

// Reverse returns the NFA for the reversed language.
func (n *NFA) Reverse() *NFA {
	r := NewNFA(n.NumStates(), n.NumSyms)
	for s := int32(0); int(s) < n.NumStates(); s++ {
		if n.Final[s] {
			r.Starts = append(r.Starts, s)
		}
		for sym, ts := range n.Delta[s] {
			for _, t := range ts {
				r.AddTransition(t, sym, s)
			}
		}
		for _, t := range n.Eps[s] {
			r.AddEps(t, s)
		}
	}
	for _, s := range n.Starts {
		r.Final[s] = true
	}
	return r
}

// String renders a compact debug form.
func (n *NFA) String() string {
	return fmt.Sprintf("NFA{states: %d, starts: %v}", n.NumStates(), n.Starts)
}
