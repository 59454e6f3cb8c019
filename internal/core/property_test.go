package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// randomInstance builds a random graph plus a sample labeled by a random
// goal query, as an oracle-consistent user would.
func randomInstance(rng *rand.Rand) (*graph.Graph, *query.Query, core.Sample) {
	alpha := alphabet.NewSorted("a", "b", "c")
	g := graph.New(alpha)
	nodes := 6 + rng.Intn(10)
	for i := 0; i < nodes; i++ {
		g.AddNode(string(rune('A' + i)))
	}
	edges := nodes + rng.Intn(2*nodes)
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(nodes)), alphabet.Symbol(rng.Intn(3)),
			graph.NodeID(rng.Intn(nodes)))
	}
	goal := query.FromDFA(alpha, automata.RandomPrefixFreeDFA(rng, 4, 3, 0.7))
	sel := goal.Evaluate(g.Snapshot()).Vector()
	var s core.Sample
	for v := 0; v < nodes; v++ {
		if rng.Intn(2) == 0 {
			continue // leave unlabeled
		}
		if sel[v] {
			s.Pos = append(s.Pos, graph.NodeID(v))
		} else {
			s.Neg = append(s.Neg, graph.NodeID(v))
		}
	}
	return g, goal, s
}

// TestLearnerSoundnessProperty is Definition 3.4's soundness clause on
// random instances: whenever the learner answers, the answer is consistent
// with the sample.
func TestLearnerSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	answered := 0
	for iter := 0; iter < 300; iter++ {
		g, _, s := randomInstance(rng)
		if len(s.Pos) == 0 {
			continue
		}
		q, err := core.Learn(g.Snapshot(), s, core.Options{})
		if errors.Is(err, core.ErrAbstain) {
			// Abstaining is allowed; soundness only constrains answers.
			continue
		}
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		answered++
		sel := q.Evaluate(g.Snapshot()).Vector()
		for _, p := range s.Pos {
			if !sel[p] {
				t.Fatalf("iter %d: positive %d not selected by %v", iter, p, q)
			}
		}
		for _, n := range s.Neg {
			if sel[n] {
				t.Fatalf("iter %d: negative %d selected by %v", iter, n, q)
			}
		}
	}
	if answered < 50 {
		t.Fatalf("only %d answered instances; property under-exercised", answered)
	}
}

// TestLearnerOutputPrefixFreeProperty: learned queries are canonical
// prefix-free representatives (Section 2's normalization).
func TestLearnerOutputPrefixFreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for iter := 0; iter < 150; iter++ {
		g, _, s := randomInstance(rng)
		if len(s.Pos) == 0 {
			continue
		}
		q, err := core.Learn(g.Snapshot(), s, core.Options{})
		if err != nil {
			continue
		}
		if !q.DFA().IsPrefixFree() {
			t.Fatalf("iter %d: learned query %v not prefix-free", iter, q)
		}
	}
}

// TestPrefixFreeSelectionInvariance: a query and its prefix-free
// representative select exactly the same nodes on any graph — the
// equivalence Section 2 builds the normalization on.
func TestPrefixFreeSelectionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	alpha := alphabet.NewSorted("a", "b", "c")
	for iter := 0; iter < 200; iter++ {
		g, _, _ := randomInstance(rng)
		q := query.FromDFA(alpha, automata.RandomNonEmptyDFA(rng, 5, 3, 0.7))
		if !q.EquivalentOn(g.Snapshot(), q.PrefixFree()) {
			t.Fatalf("iter %d: prefix-free changed selection of %v", iter, q)
		}
	}
}

// TestLearnerMonotoneInK: raising the SCP bound never turns an answer into
// an abstain (the k=K run is tried by the dynamic schedule too).
func TestLearnerMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for iter := 0; iter < 100; iter++ {
		g, _, s := randomInstance(rng)
		if len(s.Pos) == 0 {
			continue
		}
		_, errLow := core.Learn(g.Snapshot(), s, core.Options{K: 2})
		_, errDyn := core.Learn(g.Snapshot(), s, core.Options{StartK: 2, MaxK: 6})
		if errLow == nil && errDyn != nil {
			t.Fatalf("iter %d: k=2 answered but dynamic schedule abstained", iter)
		}
	}
}

// TestLearnerAgreesWithOracleOnCharacteristicExtensions: when the sample
// is drawn consistently with a goal and the learner answers, re-labeling
// any node the learner got "wrong" and re-learning still yields a
// consistent query — the interactive loop's core invariant.
func TestLearnerRefinementInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for iter := 0; iter < 80; iter++ {
		g, goal, s := randomInstance(rng)
		if len(s.Pos) == 0 {
			continue
		}
		q, err := core.Learn(g.Snapshot(), s, core.Options{})
		if err != nil {
			continue
		}
		goalSel := goal.Evaluate(g.Snapshot()).Vector()
		learnedSel := q.Evaluate(g.Snapshot()).Vector()
		// Find a disagreement on an unlabeled node and label it per the
		// goal.
		for v := 0; v < g.NumNodes(); v++ {
			nu := graph.NodeID(v)
			if _, labeled := s.Labeled(nu); labeled {
				continue
			}
			if goalSel[v] == learnedSel[v] {
				continue
			}
			if goalSel[v] {
				s.Pos = append(s.Pos, nu)
			} else {
				s.Neg = append(s.Neg, nu)
			}
			break
		}
		q2, err := core.Learn(g.Snapshot(), s, core.Options{})
		if errors.Is(err, core.ErrAbstain) {
			continue // bound too small for the refined sample: allowed
		}
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		sel := q2.Evaluate(g.Snapshot()).Vector()
		for _, p := range s.Pos {
			if !sel[p] {
				t.Fatalf("iter %d: refined positive %d lost", iter, p)
			}
		}
		for _, n := range s.Neg {
			if sel[n] {
				t.Fatalf("iter %d: refined negative %d selected", iter, n)
			}
		}
	}
}
