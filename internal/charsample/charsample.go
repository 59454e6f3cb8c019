// Package charsample implements the characteristic graph-and-sample
// construction of Theorem 3.5: for every (prefix-free) path query q there
// is a graph G and a polynomially-sized sample CS such that the learner
// run on any sample extending CS consistently with q returns q exactly.
//
// The construction mirrors the paper's (illustrated by its Figure 7):
//
//   - one positive chain component per word p of the RPNI characteristic
//     positive set P+ of L(q): a simple path spelling p, whose head νp has
//     paths(νp) = prefixes of p, so the head's SCP is exactly p;
//   - one negative component whose head ν” satisfies paths(ν”) = L'(q),
//     the prefix-closed language of words with no prefix in L(q). It is
//     the complete canonical DFA of q with the final states (and the
//     transitions into them) removed and the implicit sink kept as a
//     universal non-final state. Every strict prefix of every p ∈ P+ lies
//     in L'(q), so SCP selection is pinned to P+, and every generalization
//     that would accept a word without a prefix in L(q) trips over ν”.
package charsample

import (
	"fmt"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/rpni"
	"pathquery/internal/words"
)

// Build returns a characteristic graph and sample for q. The query must be
// non-empty; it is canonicalized to its prefix-free representative first
// (only prefix-free queries are identifiable — Section 2 argues they are
// the canonical representatives of pq equivalence classes).
func Build(q *query.Query) (*graph.Graph, core.Sample, error) {
	pf := q.PrefixFree()
	d := pf.DFA()
	if d.IsEmpty() {
		return nil, core.Sample{}, fmt.Errorf("charsample: query selects nothing; no characteristic sample exists")
	}
	alpha := q.Alphabet()
	g := graph.New(alpha)
	var s core.Sample

	// Positive components: a chain per characteristic positive word.
	pos := rpni.CharacteristicSample(d).Pos
	for i, p := range pos {
		head := g.AddNode(fmt.Sprintf("pos%d", i))
		cur := head
		for j, sym := range p {
			next := g.AddNode(fmt.Sprintf("pos%d_%d", i, j+1))
			g.AddEdge(cur, sym, next)
			cur = next
		}
		s.Pos = append(s.Pos, head)
	}

	// Negative component: complete canonical DFA minus final states.
	c := d.Complete()
	live := make([]graph.NodeID, c.NumStates())
	anyNeg := false
	for st := 0; st < c.NumStates(); st++ {
		if !c.Final[st] {
			live[st] = g.AddNode(fmt.Sprintf("neg_s%d", st))
			anyNeg = true
		} else {
			live[st] = -1
		}
	}
	if anyNeg && !c.Final[c.Start] {
		for st := 0; st < c.NumStates(); st++ {
			if c.Final[st] {
				continue
			}
			for sym := 0; sym < c.NumSyms; sym++ {
				t := c.Delta[st][sym]
				if t != automata.None && !c.Final[t] {
					g.AddEdge(live[st], alphabet.Symbol(sym), live[t])
				}
			}
		}
		s.Neg = append(s.Neg, live[c.Start])
	}
	return g, s, nil
}

// KFor returns the SCP length bound Theorem 3.5 prescribes for learning
// queries of q's size: 2·n + 1.
func KFor(q *query.Query) int {
	return 2*q.PrefixFree().Size() + 1
}

// Verify checks the theorem's statement on a concrete query: it builds the
// characteristic graph and sample, runs the learner with k = 2n+1, and
// reports whether the learned query is exactly q's prefix-free canonical
// DFA. Used by tests and by the pqbench self-check.
func Verify(q *query.Query) (bool, error) {
	g, s, err := Build(q)
	if err != nil {
		return false, err
	}
	learned, err := core.Learn(g.Snapshot(), s, core.Options{K: KFor(q)})
	if err != nil {
		return false, err
	}
	return learned.DFA().Equal(q.PrefixFree().DFA()), nil
}

// NegPathLanguage returns the words of length ≤ maxLen in L'(q) — the
// negative head's path language — for tests cross-checking the
// construction: w ∈ L'(q) iff no prefix of w lies in L(q).
func NegPathLanguage(q *query.Query, maxLen int) []words.Word {
	d := q.PrefixFree().DFA().Complete()
	syms := make([]alphabet.Symbol, d.NumSyms)
	for i := range syms {
		syms[i] = alphabet.Symbol(i)
	}
	var out []words.Word
	var walk func(st int32, w words.Word)
	walk = func(st int32, w words.Word) {
		if d.Final[st] {
			return
		}
		out = append(out, w)
		if len(w) == maxLen {
			return
		}
		for _, sym := range syms {
			walk(d.Delta[st][sym], words.Append(w, sym))
		}
	}
	walk(d.Start, words.Epsilon)
	return out
}
