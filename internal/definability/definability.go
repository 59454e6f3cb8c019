// Package definability implements the problem the paper positions its
// learning task against (Related work, citing Antonopoulos, Neven &
// Servais, ICDT 2013): given a graph and a node set X, is there a path
// query selecting *exactly* X? Learning differs by leaving unlabeled nodes
// unconstrained; definability treats every node outside X as implicitly
// negative.
//
// The decision procedure reduces to learning: X is definable iff the
// sample (X positive, V∖X negative) is consistent, and a defining query —
// when one exists that the learner can construct from bounded SCPs — is
// whatever Learn returns on that total sample, post-checked to select
// exactly X. Exact consistency is PSPACE-hard (the paper adapts
// definability's own lower-bound technique, Lemma 3.2), so Define may
// abstain like the learner does.
package definability

import (
	"errors"

	"pathquery/internal/automata"
	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// ErrNotDefinable reports that no path query selects exactly the given set
// within the learner's SCP bound.
var ErrNotDefinable = errors.New("definability: no path query selects exactly this node set (within the SCP bound)")

// totalSample labels X positive and every other node negative.
func totalSample(snap *graph.Snapshot, x []graph.NodeID) core.Sample {
	inX := make(map[graph.NodeID]bool, len(x))
	for _, v := range x {
		inX[v] = true
	}
	s := core.Sample{Pos: append([]graph.NodeID(nil), x...)}
	for v := 0; v < snap.NumNodes(); v++ {
		if !inX[graph.NodeID(v)] {
			s.Neg = append(s.Neg, graph.NodeID(v))
		}
	}
	return s
}

// Define returns a query selecting exactly x on snap, or ErrNotDefinable /
// the learner's abstain error. The empty set is defined by any empty
// query; Define returns one.
func Define(snap *graph.Snapshot, x []graph.NodeID, opt core.Options) (*query.Query, error) {
	if len(x) == 0 {
		// b·b·c·c-style queries select nothing; the canonical empty query
		// is the ∅-language query, representable directly as a DFA.
		return emptyQuery(snap), nil
	}
	s := totalSample(snap, x)
	q, err := core.Learn(snap, s, opt)
	if errors.Is(err, core.ErrAbstain) {
		return nil, ErrNotDefinable
	}
	if err != nil {
		return nil, err
	}
	// The learner guarantees consistency (⊇ X selected, negatives not);
	// with a total sample that is exactly X.
	return q, nil
}

// IsDefinable reports whether some query selects exactly x, within the
// learner's bounded search. False negatives are possible for sets whose
// defining query needs SCPs longer than the bound — the same abstain
// semantics as learning (the exact problem is intractable).
func IsDefinable(snap *graph.Snapshot, x []graph.NodeID, opt core.Options) bool {
	_, err := Define(snap, x, opt)
	return err == nil
}

// IsDefinableExact decides consistency of the total sample exactly
// (Lemma 3.1's criterion), with no SCP bound: X is definable iff every
// node of X has a path not covered by V∖X. Exponential worst case
// (PSPACE-complete in general) — for small graphs and tests.
func IsDefinableExact(snap *graph.Snapshot, x []graph.NodeID) bool {
	if len(x) == 0 {
		return true
	}
	return core.Consistent(snap, totalSample(snap, x))
}

func emptyQuery(snap *graph.Snapshot) *query.Query {
	return query.FromDFA(snap.Alphabet(), automata.NewDFA(1, snap.Alphabet().Size()))
}
