// Package hardness implements the paper's intractability reductions as
// executable gadget constructors, making the lower-bound arguments
// testable artifacts:
//
//   - Lemma 3.2 (consistency checking is PSPACE-complete): a reduction
//     from universality of the union of DFAs. Given DFAs D1..Dn over Σ,
//     build a graph and sample consistent iff ∪L(Di) ≠ Σ*.
//   - Lemma 3.3 (consistency for single-path queries with distinct symbols
//     is NP-complete): a reduction from 3SAT. Given a 3CNF formula φ,
//     build a graph and sample admitting a consistent query of the form
//     a1·…·an (pairwise distinct symbols) iff φ is satisfiable.
//
// The constructions follow the appendix's proofs line by line (including
// the fresh symbols s1, s2 and the per-variable gadgets).
package hardness

import (
	"fmt"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/core"
	"pathquery/internal/graph"
)

// FromDFAUnion builds the Lemma 3.2 gadget for the DFAs ds, which must
// share an alphabet of numSyms symbols named by alpha (symbols 0..numSyms-1
// must be interned in alpha already). It returns the constructed graph and
// sample, which is consistent iff the union of the DFAs is not universal.
func FromDFAUnion(alpha *alphabet.Alphabet, ds []*automata.DFA) (*graph.Graph, core.Sample) {
	numSyms := alpha.Size()
	g := graph.New(alpha)
	s1 := alpha.Intern("_s1")
	s2 := alpha.Intern("_s2")
	var sample core.Sample

	// Component per DFA Di: νi --s1--> (initial states); final --s2--> νi'.
	for i, d := range ds {
		prefix := fmt.Sprintf("d%d_", i)
		head := g.AddNode(prefix + "head")
		tail := g.AddNode(prefix + "tail")
		states := make([]graph.NodeID, d.NumStates())
		for q := 0; q < d.NumStates(); q++ {
			states[q] = g.AddNode(fmt.Sprintf("%sq%d", prefix, q))
		}
		g.AddEdge(head, s1, states[d.Start])
		for q := 0; q < d.NumStates(); q++ {
			for sym := 0; sym < numSyms; sym++ {
				if t := d.Delta[q][sym]; t != automata.None {
					g.AddEdge(states[q], alphabet.Symbol(sym), states[t])
				}
			}
			if d.Final[q] {
				g.AddEdge(states[q], s2, tail)
			}
		}
		sample.Neg = append(sample.Neg, head)
	}

	// G_{n+1}: ν --s1--> u1 with Σ-self-loops (covers s1·Σ* but never s2).
	{
		head := g.AddNode("gn1_head")
		u1 := g.AddNode("gn1_u1")
		g.AddEdge(head, s1, u1)
		for sym := 0; sym < numSyms; sym++ {
			g.AddEdge(u1, alphabet.Symbol(sym), u1)
		}
		sample.Neg = append(sample.Neg, head)
	}

	// G_{n+2}: ν --s1--> u2 (Σ-loops) --s2--> ν' — the positive: covers
	// exactly s1·Σ*·s2 prefixes.
	{
		head := g.AddNode("gn2_head")
		u2 := g.AddNode("gn2_u2")
		tail := g.AddNode("gn2_tail")
		g.AddEdge(head, s1, u2)
		for sym := 0; sym < numSyms; sym++ {
			g.AddEdge(u2, alphabet.Symbol(sym), u2)
		}
		g.AddEdge(u2, s2, tail)
		sample.Pos = append(sample.Pos, head)
	}
	return g, sample
}

// Literal is a 3SAT literal: variable index (1-based) with sign.
type Literal struct {
	Var     int
	Negated bool
}

// Clause is a disjunction of exactly three literals.
type Clause [3]Literal

// Formula is a 3CNF formula.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Eval evaluates the formula under assignment (1-based; assignment[v] is
// the value of variable v).
func (f Formula) Eval(assignment []bool) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if assignment[l.Var] != l.Negated {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Satisfiable decides the formula by brute force (for testing the
// reduction; exponential in NumVars).
func (f Formula) Satisfiable() bool {
	assignment := make([]bool, f.NumVars+1)
	var try func(v int) bool
	try = func(v int) bool {
		if v > f.NumVars {
			return f.Eval(assignment)
		}
		assignment[v] = false
		if try(v + 1) {
			return true
		}
		assignment[v] = true
		return try(v + 1)
	}
	return try(1)
}

// From3SAT builds the Lemma 3.3 gadget: a graph and sample admitting a
// consistent query of the form a1·…·an with pairwise distinct symbols iff
// the formula is satisfiable. It also returns the alphabet, with symbols
// _s1, _s2 and aij (clause i position j).
func From3SAT(f Formula) (*graph.Graph, core.Sample, *alphabet.Alphabet) {
	alpha := alphabet.New()
	s1 := alpha.Intern("_s1")
	s2 := alpha.Intern("_s2")
	k := len(f.Clauses)
	lit := make([][3]alphabet.Symbol, k)
	for i := 0; i < k; i++ {
		for j := 0; j < 3; j++ {
			lit[i][j] = alpha.Intern(fmt.Sprintf("a%d%d", i+1, j+1))
		}
	}
	allSyms := alpha.Symbols()

	g := graph.New(alpha)
	var sample core.Sample

	// Gφ+ : νφ+ --s1--> u1 --ai1/ai2/ai3--> u2 ... --s2--> νφ+'.
	{
		head := g.AddNode("phi_pos_head")
		us := make([]graph.NodeID, k+1)
		for i := range us {
			us[i] = g.AddNode(fmt.Sprintf("phi_pos_u%d", i+1))
		}
		tail := g.AddNode("phi_pos_tail")
		g.AddEdge(head, s1, us[0])
		for i := 0; i < k; i++ {
			for j := 0; j < 3; j++ {
				g.AddEdge(us[i], lit[i][j], us[i+1])
			}
		}
		g.AddEdge(us[k], s2, tail)
		sample.Pos = append(sample.Pos, head)
	}

	// Gφ− : same chain without the final s2 — forces consistent queries to
	// end with s2.
	{
		head := g.AddNode("phi_neg_head")
		us := make([]graph.NodeID, k+1)
		for i := range us {
			us[i] = g.AddNode(fmt.Sprintf("phi_neg_u%d", i+1))
		}
		g.AddEdge(head, s1, us[0])
		for i := 0; i < k; i++ {
			for j := 0; j < 3; j++ {
				g.AddEdge(us[i], lit[i][j], us[i+1])
			}
		}
		sample.Neg = append(sample.Neg, head)
	}

	// Per-variable gadget Gi for variables appearing both positively and
	// negatively: walking both a true-literal and a false-literal of xi
	// reaches the all-loop state ν5, which never dies before s2 — so such
	// queries select the negative head.
	for v := 1; v <= f.NumVars; v++ {
		var ti, fi []alphabet.Symbol
		for i, c := range f.Clauses {
			for j, l := range c {
				if l.Var != v {
					continue
				}
				if l.Negated {
					fi = append(fi, lit[i][j])
				} else {
					ti = append(ti, lit[i][j])
				}
			}
		}
		if len(ti) == 0 || len(fi) == 0 {
			continue
		}
		inT := symSet(ti)
		inF := symSet(fi)
		n1 := g.AddNode(fmt.Sprintf("x%d_1", v))
		n2 := g.AddNode(fmt.Sprintf("x%d_2", v))
		n3 := g.AddNode(fmt.Sprintf("x%d_3", v))
		n4 := g.AddNode(fmt.Sprintf("x%d_4", v))
		n5 := g.AddNode(fmt.Sprintf("x%d_5", v))
		g.AddEdge(n1, s1, n2)
		for _, a := range allSyms {
			switch {
			case a == s2:
				// no s2 transitions except from ν5's loop
			case inT[a]:
				g.AddEdge(n2, a, n4)
			case inF[a]:
				g.AddEdge(n2, a, n3)
			default:
				g.AddEdge(n2, a, n2)
			}
		}
		for _, a := range allSyms {
			switch {
			case a == s2:
			case inT[a]:
				g.AddEdge(n3, a, n5)
			default:
				g.AddEdge(n3, a, n3)
			}
		}
		for _, a := range allSyms {
			switch {
			case a == s2:
			case inF[a]:
				g.AddEdge(n4, a, n5)
			default:
				g.AddEdge(n4, a, n4)
			}
		}
		for _, a := range allSyms {
			g.AddEdge(n5, a, n5)
		}
		sample.Neg = append(sample.Neg, n1)
	}
	return g, sample, alpha
}

func symSet(syms []alphabet.Symbol) map[alphabet.Symbol]bool {
	out := make(map[alphabet.Symbol]bool, len(syms))
	for _, s := range syms {
		out[s] = true
	}
	return out
}

// HasDistinctPathQuery searches for a query of the form a1·…·an with
// pairwise distinct symbols consistent with the sample — the NP witness
// check of Lemma 3.3, implemented by depth-first search over symbol
// sequences (exponential worst case; the certificate is polynomial).
// Every Step of the search reads the one pinned epoch snapshot.
func HasDistinctPathQuery(snap *graph.Snapshot, s core.Sample) bool {
	numSyms := snap.Alphabet().Size()
	// Track, per candidate word w: the set of nodes reachable from each
	// example's head; accept when every positive still matches and no
	// negative does... a query a1·…·an selects ν iff the word matches from
	// ν, so consistency = word ∈ paths(pos) ∀pos and ∉ paths(neg) ∀neg.
	used := make([]bool, numSyms)
	type sets struct {
		pos [][]graph.NodeID
		neg [][]graph.NodeID
	}
	init := sets{}
	for _, p := range s.Pos {
		init.pos = append(init.pos, []graph.NodeID{p})
	}
	for _, n := range s.Neg {
		init.neg = append(init.neg, []graph.NodeID{n})
	}
	consistent := func(st sets) bool {
		for _, set := range st.pos {
			if len(set) == 0 {
				return false
			}
		}
		for _, set := range st.neg {
			if len(set) > 0 {
				return false
			}
		}
		return true
	}
	var dfs func(st sets) bool
	dfs = func(st sets) bool {
		if consistent(st) {
			return true
		}
		// Prune: a positive died; no extension revives it.
		for _, set := range st.pos {
			if len(set) == 0 {
				return false
			}
		}
		for sym := 0; sym < numSyms; sym++ {
			if used[sym] {
				continue
			}
			next := sets{}
			ok := true
			for _, set := range st.pos {
				ns := snap.Step(set, alphabet.Symbol(sym))
				if len(ns) == 0 {
					ok = false
					break
				}
				next.pos = append(next.pos, ns)
			}
			if !ok {
				continue
			}
			for _, set := range st.neg {
				next.neg = append(next.neg, snap.Step(set, alphabet.Symbol(sym)))
			}
			used[sym] = true
			if dfs(next) {
				return true
			}
			used[sym] = false
		}
		return false
	}
	return dfs(init)
}
