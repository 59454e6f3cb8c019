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
	d := &DFA{NumSyms: numSyms, Final: make([]bool, n), Delta: make([][]int32, n)}
	for i := range d.Delta {
		row := make([]int32, numSyms)
		for j := range row {
			row[j] = None
		}
		d.Delta[i] = row
	}
	return d
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

// Clone returns a deep copy.
func (d *DFA) Clone() *DFA {
	c := &DFA{NumSyms: d.NumSyms, Start: d.Start, Final: append([]bool(nil), d.Final...)}
	c.Delta = make([][]int32, len(d.Delta))
	for i, row := range d.Delta {
		c.Delta[i] = append([]int32(nil), row...)
	}
	return c
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

// Trim removes states that are unreachable from Start or cannot reach a
// final state, except that the start state is always kept (the canonical
// DFA of ∅ is a single non-final state). Transitions into removed states
// become None. States are renumbered in canonical order: BFS from Start
// taking symbols in increasing order, which makes structural equality of
// trimmed minimal DFAs coincide with language equality.
func (d *DFA) Trim() *DFA {
	n := d.NumStates()
	reach := make([]bool, n)
	stack := []int32{d.Start}
	reach[d.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.Delta[s] {
			if t != None && !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	// Co-reachability via reverse edges.
	rev := make([][]int32, n)
	for s := 0; s < n; s++ {
		for _, t := range d.Delta[s] {
			if t != None {
				rev[t] = append(rev[t], int32(s))
			}
		}
	}
	co := make([]bool, n)
	stack = stack[:0]
	for s := 0; s < n; s++ {
		if d.Final[s] {
			co[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !co[p] {
				co[p] = true
				stack = append(stack, p)
			}
		}
	}
	keep := func(s int32) bool {
		return s == d.Start || (reach[s] && co[s])
	}
	// Canonical BFS numbering over kept states.
	number := make([]int32, n)
	for i := range number {
		number[i] = None
	}
	order := []int32{d.Start}
	number[d.Start] = 0
	for i := 0; i < len(order); i++ {
		s := order[i]
		for sym := 0; sym < d.NumSyms; sym++ {
			t := d.Delta[s][sym]
			if t != None && keep(t) && number[t] == None {
				number[t] = int32(len(order))
				order = append(order, t)
			}
		}
	}
	out := NewDFA(len(order), d.NumSyms)
	out.Start = 0
	for i, s := range order {
		out.Final[i] = d.Final[s]
		for sym := 0; sym < d.NumSyms; sym++ {
			t := d.Delta[s][sym]
			if t != None && keep(t) && number[t] != None {
				out.Delta[i][sym] = number[t]
			}
		}
	}
	return out
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
