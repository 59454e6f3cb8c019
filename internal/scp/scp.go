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
// Subset states are interned to dense ids via NodeSetIndex (hashed
// sorted-set interning) and transitions are flat per-state symbol slabs,
// so the learner's thousands of consistency checks run without per-step
// string encoding or per-state maps.
//
// With no bound (k < 0) the same search decides path-language inclusion
// paths_G(ν) ⊆ paths_G(S−) exactly: it fails iff an escaping word exists.
// That is the question behind consistency (Lemma 3.1, core.Consistent)
// and the certain labels Cert+ and Cert− (Lemma 4.1, package certain);
// its worst case is exponential in |S−|, the PSPACE-hard core of
// Lemmas 3.2 and 4.2.
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
	ix      *NodeSetIndex
	nsym    int
	start   int32
	emptyID int32
	// trans[id] is the state's full transition slab over symbols, built in
	// one StepAll pass on first use; nil means not yet determinized.
	// Entries store the successor id so absent symbols read as the empty
	// (escaped) subset.
	trans [][]int32
	// bfs runs every Smallest search, so each search reuses the visited
	// set and queue of the ones before it.
	bfs graph.WitnessBFS
}

// NewCoverage builds the coverage index for the negative node set neg,
// pinned to the given epoch snapshot.
func NewCoverage(s *graph.Snapshot, neg []graph.NodeID) *Coverage {
	c := &Coverage{s: s, ix: NewNodeSetIndex(), nsym: s.Alphabet().Size()}
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
	if int(id) >= len(c.trans) {
		c.trans = append(c.trans, make([][]int32, c.ix.Len()-len(c.trans))...)
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
// k < 0 means unbounded: ok=false then means paths_G(ν) ⊆ paths_G(S−).
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
	return c.bfs.Search(k, [][2]int32{{nu, c.start}},
		func(_, cov int32) bool { return c.Escaped(cov) },
		func(v, cov int32, steps []graph.WitnessStep) []graph.WitnessStep {
			row := c.row(cov)
			for _, e := range c.s.OutEdges(v) {
				next := c.emptyID
				if int(e.Sym) < len(row) {
					next = row[e.Sym]
				}
				steps = append(steps, graph.WitnessStep{Sym: e.Sym, A: e.To, B: next})
			}
			return steps
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

// NodeSetIndex interns sorted node sets as dense int32 ids, replacing the
// string-keyed subset maps of the pre-CSR implementation. Sets are hashed
// (FNV-1a over the ids) and compared element-wise along the chain of ids
// sharing their hash. Intern takes ownership of the slice it is given;
// callers must not modify a set after interning it.
type NodeSetIndex struct {
	sets [][]graph.NodeID
	// head maps a hash to the newest id with that hash; chain[id] is the
	// next older id with id's hash, or -1.
	head  map[uint64]int32
	chain []int32
}

// NewNodeSetIndex returns an empty index.
func NewNodeSetIndex() *NodeSetIndex {
	return &NodeSetIndex{head: make(map[uint64]int32)}
}

func hashNodeSet(set []graph.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range set {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// Intern returns the id of set, assigning a fresh one (and taking
// ownership of the slice) if it is new. The set must be sorted and
// duplicate-free — the canonical form Step and StepAll produce.
func (ix *NodeSetIndex) Intern(set []graph.NodeID) int32 {
	h := hashNodeSet(set)
	first, ok := ix.head[h]
	if !ok {
		first = -1
	}
	for id := first; id >= 0; id = ix.chain[id] {
		if slices.Equal(ix.sets[id], set) {
			return id
		}
	}
	id := int32(len(ix.sets))
	ix.sets = append(ix.sets, set)
	ix.chain = append(ix.chain, first)
	ix.head[h] = id
	return id
}

// InternCopy is Intern for a caller that reuses its slice: a new vector
// is copied before it is stored. Ids compare vectors element by element,
// so any int32 vector can be interned here, not only sorted sets (the
// binary learner interns per-negative tuples of set ids).
func (ix *NodeSetIndex) InternCopy(vec []int32) int32 {
	n := len(ix.sets)
	id := ix.Intern(vec)
	if int(id) == n {
		ix.sets[id] = slices.Clone(vec)
	}
	return id
}

// Set returns the node set with the given id. The returned slice must not
// be modified.
func (ix *NodeSetIndex) Set(id int32) []graph.NodeID { return ix.sets[id] }

// Len returns the number of distinct sets interned.
func (ix *NodeSetIndex) Len() int { return len(ix.sets) }

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
