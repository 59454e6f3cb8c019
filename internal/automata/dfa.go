package automata

import (
	"fmt"
	"sort"
	"strings"

	"pathquery/internal/alphabet"
	"pathquery/internal/words"
)

// None marks an absent transition in a partial DFA.
const None int32 = -1

// DFA is a deterministic finite word automaton, possibly partial (absent
// transitions are None and reject). State 0..NumStates-1; Start is the
// initial state.
type DFA struct {
	NumSyms int
	Start   int32
	Final   []bool
	// Delta[s][sym] is the successor of s on sym, or None.
	Delta [][]int32
}

// NewDFA returns a DFA with n states, all transitions absent.
func NewDFA(n, numSyms int) *DFA {
	slab := make([]int32, n*numSyms)
	for i := range slab {
		slab[i] = None
	}
	return &DFA{NumSyms: numSyms, Final: make([]bool, n), Delta: rows(slab, n, numSyms)}
}

// rows cuts n rows of k slots from slab. Each row is capacity-capped, so
// an append to one row cannot write into the next; AddState gives each
// state it adds a row of its own.
func rows(slab []int32, n, k int) [][]int32 {
	delta := make([][]int32, n)
	for i := range delta {
		delta[i] = slab[i*k : (i+1)*k : (i+1)*k]
	}
	return delta
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.Final) }

// AddState appends a fresh state and returns its id.
func (d *DFA) AddState() int32 {
	row := make([]int32, d.NumSyms)
	for j := range row {
		row[j] = None
	}
	d.Delta = append(d.Delta, row)
	d.Final = append(d.Final, false)
	return int32(len(d.Final) - 1)
}

// Clone returns a deep copy, its rows backed by one slab.
func (d *DFA) Clone() *DFA {
	n, k := d.NumStates(), d.NumSyms
	slab := make([]int32, n*k)
	for s, row := range d.Delta {
		copy(slab[s*k:(s+1)*k], row)
	}
	return &DFA{NumSyms: k, Start: d.Start, Final: append([]bool(nil), d.Final...), Delta: rows(slab, n, k)}
}

// Step returns δ(s, sym), or None.
func (d *DFA) Step(s int32, sym alphabet.Symbol) int32 {
	if s == None {
		return None
	}
	return d.Delta[s][sym]
}

// Run returns the state reached from Start on w, or None if the run dies.
func (d *DFA) Run(w words.Word) int32 {
	s := d.Start
	for _, sym := range w {
		s = d.Step(s, sym)
		if s == None {
			return None
		}
	}
	return s
}

// Accepts reports whether d accepts w.
func (d *DFA) Accepts(w words.Word) bool {
	s := d.Run(w)
	return s != None && d.Final[s]
}

// IsEmpty reports whether L(d) = ∅.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, d.NumStates())
	stack := []int32{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Final[s] {
			return false
		}
		for _, t := range d.Delta[s] {
			if t != None && !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return true
}

// NFA converts d to an equivalent NFA (no ε-transitions).
func (d *DFA) NFA() *NFA {
	n := NewNFA(d.NumStates(), d.NumSyms)
	n.Starts = []int32{d.Start}
	copy(n.Final, d.Final)
	for s := range d.Delta {
		for sym, t := range d.Delta[s] {
			if t != None {
				n.AddTransition(int32(s), alphabet.Symbol(sym), t)
			}
		}
	}
	return n
}

// Complete returns a total DFA accepting the same language: if d is already
// total it is returned unchanged, otherwise a copy with a non-final sink is
// returned (the sink is the last state).
func (d *DFA) Complete() *DFA {
	total := true
	for _, row := range d.Delta {
		for _, t := range row {
			if t == None {
				total = false
				break
			}
		}
	}
	if total {
		return d
	}
	c := d.Clone()
	sink := c.AddState()
	for s := range c.Delta {
		for j, t := range c.Delta[s] {
			if t == None {
				c.Delta[s][j] = sink
			}
		}
	}
	return c
}

// Trim removes the states that are unreachable from Start or reach no
// final state, and every transition into them; the start state is always
// kept, so the trimmed DFA of ∅ is a single non-final state with no
// transitions. States are renumbered in canonical order: BFS from Start
// taking symbols in increasing order, which makes structural equality of
// trimmed minimal DFAs coincide with language equality.
func (d *DFA) Trim() *DFA {
	live := d.live()
	number := make([]int32, d.NumStates())
	for i := range number {
		number[i] = None
	}
	order := make([]int32, 1, d.NumStates())
	order[0] = d.Start
	number[d.Start] = 0
	for i := 0; i < len(order); i++ {
		for _, t := range d.Delta[order[i]] {
			if t != None && live[t] && number[t] == None {
				number[t] = int32(len(order))
				order = append(order, t)
			}
		}
	}
	out := NewDFA(len(order), d.NumSyms)
	for i, s := range order {
		out.Final[i] = d.Final[s]
		for sym, t := range d.Delta[s] {
			if t != None && live[t] {
				out.Delta[i][sym] = number[t]
			}
		}
	}
	return out
}

// live reports, per state, whether it is reachable from Start and reaches
// a final state: the states Trim keeps. One pass from Start marks the
// reachable states and counts their edges into each state; the reverse
// edges then fill one counted CSR array, which a second pass walks back
// from the reachable final states.
func (d *DFA) live() []bool {
	n := d.NumStates()
	flags := make([]bool, 2*n)
	reach, live := flags[:n], flags[n:]
	// off[t+1] first counts the reachable edges into t; the prefix sums
	// make off[t]:off[t+1] t's slice of src. The stack holds each state
	// at most once per pass.
	ints := make([]int32, 2*n+1)
	off, stack := ints[:n+1], ints[n+1:n+1]
	stack = append(stack, d.Start)
	reach[d.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.Delta[s] {
			if t == None {
				continue
			}
			off[t+1]++
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	for t := 0; t < n; t++ {
		off[t+1] += off[t]
	}
	// Fill src with off[t] as t's cursor, which leaves off shifted by
	// one slot; shift it back.
	src := make([]int32, off[n])
	for s := 0; s < n; s++ {
		if !reach[s] {
			continue
		}
		for _, t := range d.Delta[s] {
			if t != None {
				src[off[t]] = int32(s)
				off[t]++
			}
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	for s := 0; s < n; s++ {
		if reach[s] && d.Final[s] {
			live[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range src[off[t]:off[t+1]] {
			if !live[s] {
				live[s] = true
				stack = append(stack, s)
			}
		}
	}
	return live
}

// Equal reports structural equality (same canonical form). Use on outputs
// of Minimize, which are canonically numbered.
func (d *DFA) Equal(o *DFA) bool {
	if d.NumSyms != o.NumSyms || d.NumStates() != o.NumStates() || d.Start != o.Start {
		return false
	}
	for s := range d.Final {
		if d.Final[s] != o.Final[s] {
			return false
		}
		for sym := 0; sym < d.NumSyms; sym++ {
			if d.Delta[s][sym] != o.Delta[s][sym] {
				return false
			}
		}
	}
	return true
}

// PrefixFree returns the canonical DFA of the unique prefix-free query
// equivalent to d (Section 2 of the paper): remove all outgoing transitions
// of every final state, then minimize.
func (d *DFA) PrefixFree() *DFA { return Minimize(d.CutAtFinals()) }

// CutAtFinals returns a copy of d without the outgoing transitions of its
// final states: it accepts the words of L(d) that have no proper prefix in
// L(d), the prefix-free language PrefixFree canonicalizes. Callers that
// minimize anyway (query.FromDFA) skip PrefixFree's own minimization.
func (d *DFA) CutAtFinals() *DFA {
	c := d.Clone()
	for s := range c.Delta {
		if c.Final[s] {
			for j := range c.Delta[s] {
				c.Delta[s][j] = None
			}
		}
	}
	return c
}

// IsPrefixFree reports whether L(d) is prefix-free: no word of the language
// is a proper prefix of another. On a trimmed minimal DFA this is exactly
// "no final state has an outgoing transition", since in a trimmed automaton
// every transition leads to a co-reachable state.
func (d *DFA) IsPrefixFree() bool {
	m := Minimize(d)
	for s := range m.Delta {
		if !m.Final[s] {
			continue
		}
		for _, t := range m.Delta[s] {
			if t != None {
				return false
			}
		}
	}
	return true
}

// String renders a debug form listing transitions.
func (d *DFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA{start: %d; ", d.Start)
	for s := range d.Delta {
		if d.Final[s] {
			fmt.Fprintf(&b, "(%d) ", s)
		} else {
			fmt.Fprintf(&b, "%d ", s)
		}
		for sym, t := range d.Delta[s] {
			if t != None {
				fmt.Fprintf(&b, "-%d->%d ", sym, t)
			}
		}
	}
	b.WriteString("}")
	return b.String()
}

// states sorted helper used in several constructions.
func sortedStates(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
