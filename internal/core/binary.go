package core

import (
	"fmt"
	"sort"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/plan"
	"pathquery/internal/query"
	"pathquery/internal/scp"
	"pathquery/internal/words"
)

// This file implements Algorithms 2 and 3 (Appendix B): learning under
// binary and n-ary semantics. A binary example is a pair of nodes; the
// only change from Algorithm 1 is that SCPs are drawn from the pair path
// language paths2_G(ν, ν') — a smaller candidate space, since the
// destination is fixed. Like the monadic learner, everything runs serially
// against one pinned epoch snapshot.

// Pair is an ordered node pair (the example of binary semantics).
type Pair struct {
	From, To graph.NodeID
}

// PairSample is a set of positive and negative pair examples.
type PairSample struct {
	Pos []Pair
	Neg []Pair
}

// Validate rejects samples labeling a pair both positive and negative.
func (s PairSample) Validate() error {
	seen := make(map[Pair]bool, len(s.Pos))
	for _, p := range s.Pos {
		seen[p] = true
	}
	for _, p := range s.Neg {
		if seen[p] {
			return fmt.Errorf("core: pair (%d,%d) labeled both positive and negative", p.From, p.To)
		}
	}
	return nil
}

// ValidateOn is Validate plus a bounds check of every pair endpoint
// against the snapshot's node range.
func (s PairSample) ValidateOn(snap *graph.Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, set := range [][]Pair{s.Pos, s.Neg} {
		for _, p := range set {
			if err := checkBounds(snap, []graph.NodeID{p.From, p.To}); err != nil {
				return err
			}
		}
	}
	return nil
}

// LearnBinary runs Algorithm 2 against a pinned epoch snapshot and returns
// the learned binary query, or ErrAbstain.
func LearnBinary(snap *graph.Snapshot, s PairSample, opt Options) (*query.Query, error) {
	opt = opt.withDefaults()
	if err := s.ValidateOn(snap); err != nil {
		return nil, err
	}
	if len(s.Pos) == 0 {
		return nil, ErrAbstain
	}
	for k := opt.StartK; k <= opt.MaxK; k++ {
		q, inconsistent := learnBinaryFixedK(snap, s, opt, k)
		if q != nil {
			return q, nil
		}
		if inconsistent {
			break
		}
	}
	return nil, ErrAbstain
}

// learnBinaryFixedK runs one round of the schedule at SCP bound k; a nil
// query means the round abstains. inconsistent reports that a positive
// pair's search ran out of states below the bound, so no round at any k
// can select it, as in learnFixedK.
func learnBinaryFixedK(snap *graph.Snapshot, s PairSample, opt Options, k int) (q *query.Query, inconsistent bool) {
	// Lines 1-2: smallest consistent pair-path per positive pair, in input
	// order.
	paths := make([]words.Word, 0, len(s.Pos))
	for _, p := range s.Pos {
		w, ok, cut := smallestPairPath(snap, p, s.Neg, k)
		if ok {
			paths = append(paths, w)
		} else if !cut {
			return nil, true
		}
	}
	if len(paths) == 0 {
		return nil, false
	}

	m := automata.NewMerger(automata.BuildPTA(snap.Alphabet().Size(), paths, nil))
	if !opt.DisableGeneralization {
		m.Generalize(func() bool {
			// One shape-preserving plan per candidate: every negative
			// check of this candidate shares its compiled tables.
			return coversNoPair(snap, plan.FromDFA(m.DFA()), s.Neg)
		})
	}
	d := m.DFA()
	dp := plan.FromDFA(d)
	for _, p := range s.Pos {
		if !snap.CoversPairPlan(dp, p.From, p.To) {
			return nil, false
		}
	}
	// Binary queries keep their exact language: the prefix-free reduction
	// is a monadic-semantics equivalence and does not apply to paths2.
	return query.FromDFA(snap.Alphabet(), d), false
}

// coversNoPair reports whether the compiled candidate selects none of the
// negative pairs — the binary merger's consistency predicate, with an
// early exit at the first covered pair.
func coversNoPair(snap *graph.Snapshot, dp *plan.Plan, neg []Pair) bool {
	for _, n := range neg {
		if snap.CoversPairPlan(dp, n.From, n.To) {
			return false
		}
	}
	return true
}

// smallestPairPath returns the canonical-order minimal word of length ≤ k
// in paths2_G(p) \ paths2_G(neg), and whether the bound k cut the search
// (as scp.Coverage.Smallest reports it). The whole search state — the
// node set reachable from p.From and, per negative pair, the set reachable
// from its origin — is a deterministic function of the word, so the shared
// canonical-order witness core (graph.WitnessBFS) over pairs
// (mine subset id, negative-subset tuple id) enumerates words canonically.
// Subsets are interned to dense ids (scp.NodeSetIndex) with memoized
// (set, symbol) transitions, and the per-negative id vectors are interned
// in a second index, so the search state is two int32s and each distinct
// subset is stepped at most once per symbol.
func smallestPairPath(snap *graph.Snapshot, p Pair, neg []Pair, k int) (w words.Word, ok, cut bool) {
	ix := scp.NewNodeSetIndex()
	tup := scp.NewNodeSetIndex()
	trans := make(map[uint64]int32)
	stepID := func(id int32, sym alphabet.Symbol) int32 {
		key := uint64(uint32(id))<<32 | uint64(sym)
		if t, ok := trans[key]; ok {
			return t
		}
		t := ix.Intern(snap.Step(ix.Set(id), sym))
		trans[key] = t
		return t
	}
	contains := func(id int32, v graph.NodeID) bool {
		set := ix.Set(id)
		i := sort.Search(len(set), func(i int) bool { return set[i] >= v })
		return i < len(set) && set[i] == v
	}
	accept := func(mine, negsID int32) bool {
		if !contains(mine, p.To) {
			return false
		}
		for i, id := range tup.Set(negsID) {
			if contains(id, neg[i].To) {
				return false
			}
		}
		return true
	}

	startMine := ix.Intern([]graph.NodeID{p.From})
	negsInit := make([]int32, len(neg))
	for i, n := range neg {
		negsInit[i] = ix.Intern([]graph.NodeID{n.From})
	}
	startNegs := tup.Intern(negsInit)
	scratch := make([]int32, len(neg))
	var bfs graph.WitnessBFS
	return bfs.Search(k, [][2]int32{{startMine, startNegs}},
		accept,
		func(mine, negsID int32, steps []graph.WitnessStep) []graph.WitnessStep {
			negs := tup.Set(negsID)
			for _, sym := range snap.SymbolsOf(ix.Set(mine)) {
				m2 := stepID(mine, sym)
				if len(ix.Set(m2)) == 0 {
					continue // the positive pair's path dies here
				}
				for i, id := range negs {
					scratch[i] = stepID(id, sym)
				}
				steps = append(steps, graph.WitnessStep{Sym: sym, A: m2, B: tup.InternCopy(scratch)})
			}
			return steps
		})
}

// TupleSample is a set of n-ary examples: node tuples labeled + or −.
type TupleSample struct {
	Pos [][]graph.NodeID
	Neg [][]graph.NodeID
}

// Arity returns the tuple width, or 0 for an empty sample.
func (s TupleSample) Arity() int {
	if len(s.Pos) > 0 {
		return len(s.Pos[0])
	}
	if len(s.Neg) > 0 {
		return len(s.Neg[0])
	}
	return 0
}

// Validate checks that all tuples share an arity ≥ 2.
func (s TupleSample) Validate() error {
	n := s.Arity()
	if n < 2 {
		return fmt.Errorf("core: n-ary sample needs tuples of arity ≥ 2")
	}
	for _, t := range append(append([][]graph.NodeID{}, s.Pos...), s.Neg...) {
		if len(t) != n {
			return fmt.Errorf("core: mixed tuple arities %d and %d", n, len(t))
		}
	}
	return nil
}

// ValidateOn is Validate plus a bounds check of every tuple component
// against the snapshot's node range.
func (s TupleSample) ValidateOn(snap *graph.Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, set := range [][][]graph.NodeID{s.Pos, s.Neg} {
		for _, t := range set {
			if err := checkBounds(snap, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// LearnNary runs Algorithm 3: project the tuple sample onto each adjacent
// position pair, learn a binary query per position with Algorithm 2, and
// combine. Abstains if any position abstains. Every position learns on
// the same pinned epoch snapshot.
func LearnNary(snap *graph.Snapshot, s TupleSample, opt Options) (*query.Nary, error) {
	if err := s.ValidateOn(snap); err != nil {
		return nil, err
	}
	n := s.Arity()
	parts := make([]*query.Query, 0, n-1)
	for i := 0; i < n-1; i++ {
		ps := PairSample{}
		for _, t := range s.Pos {
			ps.Pos = append(ps.Pos, Pair{t[i], t[i+1]})
		}
		for _, t := range s.Neg {
			ps.Neg = append(ps.Neg, Pair{t[i], t[i+1]})
		}
		if err := ps.Validate(); err != nil {
			// A pair may appear positively in one tuple and negatively in
			// another projection; per the paper's Algorithm 3 semantics we
			// abstain, since no single regular expression can satisfy both.
			return nil, ErrAbstain
		}
		q, err := LearnBinary(snap, ps, opt)
		if err != nil {
			return nil, err
		}
		parts = append(parts, q)
	}
	return query.NewNary(parts...)
}
