// Package scp implements the smallest-consistent-path machinery of
// Section 3.2: for a positive node ν, the SCP is the canonical-order
// minimal word in paths_G(ν) \ paths_G(S−), searched up to the length
// bound k of Algorithm 1. The same search underlies the practical
// interactive strategies of Section 4.2: a node is k-informative iff it
// has a path of length ≤ k not covered by a negative example, and strategy
// kS ranks k-informative nodes by their number of non-covered k-paths.
//
// For a fixed word w the negatives' coverage set is a function of w alone,
// so it is determinized once per sample into a lazily-built Coverage index
// shared by every positive node's search. The per-node search is then a
// BFS over (graph node, coverage state) expanding symbols in sorted order,
// which visits words in canonical order; the first state with empty
// coverage yields the SCP. Depth is bounded by k (2–4 in the paper's
// experiments), which bounds the subset blow-up that makes the unbounded
// problem PSPACE-hard (Lemma 3.2).
//
// Subset states are interned to dense ids via graph.NodeSetIndex (hashed
// sorted-set interning over the CSR substrate) and transitions are flat
// per-state symbol slabs, so the learner's thousands of consistency checks
// run without per-step string encoding or per-state maps.
//
// A Coverage is pinned to one immutable epoch Snapshot: every search it
// runs observes exactly the graph published at that epoch, so coverage
// indexes may be built and queried while a writer keeps mutating and
// publishing newer epochs. The negatives' coverage does not depend on k,
// so one Coverage serves a whole learn call, every round of the k
// schedule included. It is not safe for concurrent use (transitions are
// memoized lazily); concurrent searches build one Coverage per worker
// over the same pinned snapshot, as the kS strategy does.
package scp

import (
	"slices"

	"pathquery/internal/alphabet"
	"pathquery/internal/graph"
	"pathquery/internal/words"
)

// Coverage is the lazily-determinized automaton of paths_G(S−): state ids
// stand for subsets of graph nodes reachable from the negative examples,
// with transitions computed on demand and memoized. The empty subset is a
// distinguished absorbing state meaning "no longer covered by any
// negative".
type Coverage struct {
	s       *graph.Snapshot
	ix      *graph.NodeSetIndex
	nsym    int
	start   int32
	emptyID int32
	// trans[id] is the state's full transition slab over symbols, built in
	// one StepAll pass on first use; nil means not yet determinized.
	// Entries store the successor id so absent symbols read as the empty
	// (escaped) subset.
	trans [][]int32
}

// NewCoverage builds the coverage index for the negative node set neg,
// pinned to the given epoch snapshot.
func NewCoverage(s *graph.Snapshot, neg []graph.NodeID) *Coverage {
	c := &Coverage{s: s, ix: graph.NewNodeSetIndex(), nsym: s.Alphabet().Size()}
	c.emptyID = c.ix.Intern(nil)
	c.start = c.ix.Intern(sortedUnique(neg))
	return c
}

// Escaped reports whether the coverage state is the empty subset: words
// reaching it are not covered by any negative example.
func (c *Coverage) Escaped(id int32) bool { return len(c.ix.Set(id)) == 0 }

// Step returns the coverage state after reading sym.
func (c *Coverage) Step(id int32, sym alphabet.Symbol) int32 {
	row := c.row(id)
	if int(sym) >= len(row) {
		// The alphabet grew since this Coverage was built: no edge carried
		// sym when the graph froze, so the successor is the empty subset.
		return c.emptyID
	}
	return row[sym]
}

// row determinizes state id on first use: one StepAll pass computes every
// symbol's successor subset at once.
func (c *Coverage) row(id int32) []int32 {
	for int(id) >= len(c.trans) {
		c.trans = append(c.trans, nil)
	}
	row := c.trans[id]
	if row != nil {
		return row
	}
	row = make([]int32, c.nsym)
	for i := range row {
		row[i] = c.emptyID
	}
	c.s.StepAll(c.ix.Set(id), func(sym alphabet.Symbol, succ []graph.NodeID) {
		row[sym] = c.ix.Intern(succ)
	})
	c.trans[id] = row
	return row
}

// NumStates returns how many subset states have been materialized; a
// measure of the index's cost, used by benchmarks.
func (c *Coverage) NumStates() int { return c.ix.Len() }

// Smallest returns the SCP of ν bounded by k: the canonical-order minimal
// word of length ≤ k in paths_G(ν) \ paths_G(S−); ok=false if none exists.
// cut reports whether the bound k stopped the search. ok=false with
// cut=false means the search ran out of (node, coverage) pairs: every
// path of ν, of any length, is covered by a negative, so no query
// consistent with the sample selects ν (Lemma 3.1).
//
// The search is the shared canonical-order witness core (graph.WitnessBFS)
// over pairs (graph node, coverage state): out-edges are sorted by symbol,
// so expansion preserves canonical order across each BFS level, and the
// first state with escaped coverage yields the SCP.
func (c *Coverage) Smallest(nu graph.NodeID, k int) (w words.Word, ok, cut bool) {
	return graph.WitnessBFS(k, [][2]int32{{nu, c.start}},
		func(_, cov int32) bool { return c.Escaped(cov) },
		func(v, cov int32, emit func(sym alphabet.Symbol, a2, b2 int32)) {
			row := c.row(cov)
			for _, e := range c.s.OutEdges(v) {
				next := c.emptyID
				if int(e.Sym) < len(row) {
					next = row[e.Sym]
				}
				emit(e.Sym, e.To, next)
			}
		})
}

// IsKInformative reports whether ν has at least one path of length ≤ k not
// covered by a negative example (Section 4.2).
func (c *Coverage) IsKInformative(nu graph.NodeID, k int) bool {
	_, ok, _ := c.Smallest(nu, k)
	return ok
}

// CountNonCovered returns the number of distinct words of length ≤ k in
// paths_G(ν) \ paths_G(S−) — the ranking used by strategy kS, which favors
// nodes with the smallest non-zero count (their SCP search space is
// smallest).
//
// Distinct words are in bijection with paths of the determinized product
// (reachable-set from ν, coverage state), so a per-level DP over those
// product states counts exactly the non-covered words. Reachable sets are
// interned in the same index as the coverage subsets, making the DP keys
// plain integer pairs.
func (c *Coverage) CountNonCovered(nu graph.NodeID, k int) int {
	type key struct {
		mine int32
		cov  int32
	}
	level := map[key]int{}
	startMine := c.ix.Intern([]graph.NodeID{nu})
	level[key{startMine, c.start}] = 1

	total := 0
	if c.Escaped(c.start) {
		total++ // ε itself is uncovered when there are no negatives
	}
	for depth := 0; depth < k; depth++ {
		nextLevel := map[key]int{}
		for kk, n := range level {
			for _, sym := range c.s.SymbolsOf(c.ix.Set(kk.mine)) {
				mine := c.s.Step(c.ix.Set(kk.mine), sym)
				if len(mine) == 0 {
					continue
				}
				cov := c.Step(kk.cov, sym)
				nextLevel[key{c.ix.Intern(mine), cov}] += n
			}
		}
		for nk, n := range nextLevel {
			if c.Escaped(nk.cov) {
				total += n
			}
		}
		level = nextLevel
	}
	return total
}

func sortedUnique(set []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), set...)
	slices.Sort(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}
