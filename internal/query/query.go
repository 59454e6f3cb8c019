// Package query implements path queries (Section 2): a query q is a regular
// expression evaluated under monadic semantics on a graph database G,
//
//	q(G) = {ν ∈ G | L(q) ∩ paths_G(ν) ≠ ∅},
//
// plus the binary and n-ary semantics of Appendix B. Queries are
// represented by the canonical DFA of their (prefix-free) language; the
// size of a query is its canonical-DFA state count.
package query

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/plan"
	"pathquery/internal/regex"
	"pathquery/internal/words"
)

// Query is a path query over a fixed alphabet.
type Query struct {
	alpha *alphabet.Alphabet
	// dfa is the canonical (trimmed, minimal) DFA of the query language.
	dfa *automata.DFA
	// source is the originating expression when the query was parsed or
	// built from a regex; nil for learned queries (String falls back to
	// state-elimination extraction).
	source *regex.Node

	keyOnce sync.Once
	key     string

	strOnce sync.Once
	str     string

	planOnce sync.Once
	plan     *plan.Plan
}

// Parse parses a regular expression over alpha into a query. New labels in
// the expression are interned into alpha.
func Parse(alpha *alphabet.Alphabet, src string) (*Query, error) {
	n, err := regex.Parse(alpha, src)
	if err != nil {
		return nil, err
	}
	return FromRegex(alpha, n), nil
}

// MustParse is Parse panicking on error; for fixtures and tests.
func MustParse(alpha *alphabet.Alphabet, src string) *Query {
	q, err := Parse(alpha, src)
	if err != nil {
		panic(err)
	}
	return q
}

// FromRegex builds a query from a parsed expression.
func FromRegex(alpha *alphabet.Alphabet, n *regex.Node) *Query {
	return &Query{
		alpha:  alpha,
		dfa:    automata.CompileRegex(n, alpha.Size()),
		source: n,
	}
}

// FromDFA builds a query from an automaton; the DFA is canonicalized.
func FromDFA(alpha *alphabet.Alphabet, d *automata.DFA) *Query {
	return &Query{alpha: alpha, dfa: automata.Minimize(d)}
}

// Alphabet returns the query's alphabet.
func (q *Query) Alphabet() *alphabet.Alphabet { return q.alpha }

// DFA returns the canonical DFA. Callers must not modify it.
func (q *Query) DFA() *automata.DFA { return q.dfa }

// Plan returns the query's compiled evaluation plan: the canonical DFA's
// transition tables, reverse DFA, accept-reachability sets, and symbol
// filters in the layout chosen at compile time (see internal/plan). The
// plan is built once and memoized; it is immutable and safe for unlimited
// concurrent use. Every evaluation method of Query goes through it.
func (q *Query) Plan() *plan.Plan {
	// The canonical DFA is already minimized with dead states pruned, so
	// the shape-preserving table build suffices.
	q.planOnce.Do(func() { q.plan = plan.FromDFA(q.dfa) })
	return q.plan
}

// Size returns the paper's size measure: the number of canonical-DFA states.
func (q *Query) Size() int { return q.dfa.NumStates() }

// CacheKey returns a canonical key for the query's language over its
// alphabet: two queries parsed against the same alphabet have equal keys
// iff they are equivalent (their canonical DFAs coincide), regardless of
// how the source expression was written and of labels interned after
// compilation. The serving engine's plan and result caches are keyed on
// it. Computed once and memoized; safe for concurrent use.
func (q *Query) CacheKey() string {
	q.keyOnce.Do(func() { q.key = q.dfa.CanonicalKey() })
	return q.key
}

// IsEmpty reports whether the query selects nothing on every graph.
func (q *Query) IsEmpty() bool { return q.dfa.IsEmpty() }

// Accepts reports whether w ∈ L(q).
func (q *Query) Accepts(w words.Word) bool { return q.dfa.Accepts(w) }

// PrefixFree returns the unique prefix-free query equivalent to q
// (Section 2): the minimal representative of q's equivalence class.
func (q *Query) PrefixFree() *Query {
	return &Query{alpha: q.alpha, dfa: q.dfa.PrefixFree()}
}

// EquivalentTo reports language equality with o.
func (q *Query) EquivalentTo(o *Query) bool {
	return automata.Equivalent(q.dfa, o.dfa)
}

// EquivalentOn reports whether q and o select exactly the same nodes on s —
// the paper's "indistinguishable by the user" relation (Section 3.3).
func (q *Query) EquivalentOn(s *graph.Snapshot, o *Query) bool {
	a, b := q.Evaluate(s).Vector(), o.Evaluate(s).Vector()
	for v := range a {
		if a[v] != b[v] {
			return false
		}
	}
	return true
}

// Selection is the outcome of one monadic evaluation pass. It lets call
// sites that need several views of the same result — the selected ids, the
// count, the selectivity — pay for a single product pass instead of
// re-running the engine per accessor.
type Selection struct {
	vec   []bool
	count int
}

// Evaluate runs one monadic evaluation pass of q on an epoch snapshot,
// through the compiled plan.
func (q *Query) Evaluate(s *graph.Snapshot) Selection {
	return NewSelection(s.SelectMonadicPlan(q.Plan()))
}

// NewSelection wraps a selection vector, taking ownership of it.
func NewSelection(vec []bool) Selection {
	count := 0
	for _, s := range vec {
		if s {
			count++
		}
	}
	return Selection{vec: vec, count: count}
}

// Vector returns the per-node selection vector. Callers must not modify it.
func (s Selection) Vector() []bool { return s.vec }

// Count returns |q(G)|, the number of selected nodes.
func (s Selection) Count() int { return s.count }

// Nodes returns the selected node ids in increasing order.
func (s Selection) Nodes() []graph.NodeID {
	if s.count == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, s.count)
	for v, sel := range s.vec {
		if sel {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Selectivity returns |q(G)| / |V|, the measure reported in Table 1.
func (s Selection) Selectivity() float64 {
	if len(s.vec) == 0 {
		return 0
	}
	return float64(s.count) / float64(len(s.vec))
}

// Selects reports whether q selects ν on an epoch snapshot: the verdict of
// the early-exit forward search that finds ν's witness path.
func (q *Query) Selects(s *graph.Snapshot, nu graph.NodeID) bool {
	_, ok, _ := s.WitnessPathPlan(context.Background(), q.Plan(), nu)
	return ok
}

// SelectsPair reports whether (u, v) ∈ q(G) under binary semantics
// (Appendix B): some path from u to v spells a word of L(q). It runs a
// bidirectional product search through the compiled plan.
func (q *Query) SelectsPair(s *graph.Snapshot, u, v graph.NodeID) bool {
	return s.CoversPairPlan(q.Plan(), u, v)
}

// SelectPairsFrom returns all v with (u, v) selected under binary
// semantics: the direction-optimizing evaluation through the compiled
// plan.
func (q *Query) SelectPairsFrom(s *graph.Snapshot, u graph.NodeID) []graph.NodeID {
	return s.SelectBinaryFromPlan(q.Plan(), u)
}

// String renders the query: its source expression when known, otherwise an
// expression extracted from the canonical DFA. Rendered once and memoized;
// safe for concurrent use.
func (q *Query) String() string {
	q.strOnce.Do(func() { q.str = q.Regex().String(q.alpha) })
	return q.str
}

// Regex returns a regular expression denoting L(q): the original source if
// the query was parsed, otherwise one extracted from the DFA.
func (q *Query) Regex() *regex.Node {
	if q.source != nil {
		return q.source
	}
	return automata.ToRegex(q.dfa)
}

// Nary is an n-ary path query (Appendix B): a sequence of n-1 regular
// expressions selecting node tuples (ν1..νn) where each adjacent pair is
// related by the corresponding expression under binary semantics.
type Nary struct {
	Parts []*Query
}

// NewNary builds an n-ary query from its component queries. All components
// must share an alphabet.
func NewNary(parts ...*Query) (*Nary, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("query: n-ary query needs at least one component")
	}
	for _, p := range parts[1:] {
		if p.alpha != parts[0].alpha {
			return nil, fmt.Errorf("query: n-ary components must share an alphabet")
		}
	}
	return &Nary{Parts: parts}, nil
}

// Arity returns n: the tuple width selected by the query.
func (n *Nary) Arity() int { return len(n.Parts) + 1 }

// SelectsTuple reports whether the tuple is selected:
// ∀i. paths2_G(νi, νi+1) ∩ L(qi) ≠ ∅.
func (n *Nary) SelectsTuple(s *graph.Snapshot, tuple []graph.NodeID) (bool, error) {
	if len(tuple) != n.Arity() {
		return false, fmt.Errorf("query: tuple arity %d, query arity %d", len(tuple), n.Arity())
	}
	for i, part := range n.Parts {
		if !part.SelectsPair(s, tuple[i], tuple[i+1]) {
			return false, nil
		}
	}
	return true, nil
}

// SelectTuples enumerates all selected tuples on s, in lexicographic node
// order. Intended for small graphs (the output is O(|V|^n)); callers on
// large graphs should use SelectsTuple on candidate tuples instead.
func (n *Nary) SelectTuples(s *graph.Snapshot) [][]graph.NodeID {
	// Start from every node, extend via SelectPairsFrom per position.
	var out [][]graph.NodeID
	var extend func(prefix []graph.NodeID, pos int)
	extend = func(prefix []graph.NodeID, pos int) {
		if pos == len(n.Parts) {
			out = append(out, append([]graph.NodeID(nil), prefix...))
			return
		}
		for _, next := range n.Parts[pos].SelectPairsFrom(s, prefix[len(prefix)-1]) {
			extend(append(prefix, next), pos+1)
		}
	}
	for v := 0; v < s.NumNodes(); v++ {
		extend([]graph.NodeID{graph.NodeID(v)}, 0)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// String renders the n-ary query as (q1, ..., qn-1).
func (n *Nary) String() string {
	s := "("
	for i, p := range n.Parts {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + ")"
}
