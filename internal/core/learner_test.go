package core_test

import (
	"errors"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
	"pathquery/internal/words"
)

func TestLearnerPaperExample(t *testing.T) {
	// Section 3.2's running example: on G0 with S+ = {ν1, ν3},
	// S− = {ν2, ν7} and k = 3, the learner returns (a·b)*·c.
	g, s := paperfix.G0()
	r, err := core.LearnDetailed(g.Snapshot(), s, core.Options{K: 3})
	if err != nil {
		t.Fatalf("learner abstained: %v", err)
	}
	// The SCPs are abc (for ν1) and c (for ν3).
	if len(r.SCPs) != 2 {
		t.Fatalf("SCPs = %v", r.SCPs)
	}
	gotSCPs := []string{
		words.String(r.SCPs[0], g.Alphabet()),
		words.String(r.SCPs[1], g.Alphabet()),
	}
	if gotSCPs[0] != "a·b·c" || gotSCPs[1] != "c" {
		t.Fatalf("SCPs = %v, want [a·b·c c]", gotSCPs)
	}
	want := query.MustParse(g.Alphabet(), "(a·b)*·c")
	if !r.Query.EquivalentTo(want) {
		t.Fatalf("learned %v, want (a·b)*·c", r.Query)
	}
	// Exactly the canonical DFA: the sample is characteristic (§3.3).
	if !r.Query.DFA().Equal(want.DFA()) {
		t.Fatalf("learned DFA not canonical-equal to goal")
	}
	if r.Merges == 0 {
		t.Fatal("generalization performed no merges")
	}
}

func TestLearnerDynamicKReachesPaperExample(t *testing.T) {
	// With the dynamic schedule (start k=2), k=2 finds SCP c for ν3 but
	// the resulting query cannot select ν1, so the learner retries with
	// k=3 and succeeds (§5.1).
	g, s := paperfix.G0()
	r, err := core.LearnDetailed(g.Snapshot(), s, core.Options{})
	if err != nil {
		t.Fatalf("learner abstained: %v", err)
	}
	if r.K != 3 {
		t.Fatalf("dynamic schedule stopped at k=%d, want 3", r.K)
	}
	want := query.MustParse(g.Alphabet(), "(a·b)*·c")
	if !r.Query.EquivalentTo(want) {
		t.Fatalf("learned %v", r.Query)
	}
}

func TestLearnerAbstainsWhenKTooSmall(t *testing.T) {
	g, s := paperfix.G0()
	// k = 2: SCP for ν1 (abc) is out of reach; the k=2 query (c) does not
	// select ν1, so the learner must abstain.
	_, err := core.Learn(g.Snapshot(), s, core.Options{K: 2})
	if !errors.Is(err, core.ErrAbstain) {
		t.Fatalf("err = %v, want ErrAbstain", err)
	}
}

func TestLearnerInconsistentFigure5(t *testing.T) {
	// Figure 5's sample is inconsistent: every path of the positive is
	// covered by the negatives. The learner must abstain for any k.
	g, s := paperfix.Figure5()
	snap := g.Snapshot()
	for _, k := range []int{2, 4, 8} {
		if _, err := core.Learn(snap, s, core.Options{K: k}); !errors.Is(err, core.ErrAbstain) {
			t.Fatalf("k=%d: err = %v, want ErrAbstain", k, err)
		}
	}
	if core.Consistent(snap, s) {
		t.Fatal("figure 5 sample should be inconsistent")
	}
}

func TestLearnerFigure8Equivalent(t *testing.T) {
	// Figure 8: the graph owns no characteristic sample for (a·b)*·c; the
	// learner returns the query a, indistinguishable on this graph.
	g, s := paperfix.Figure8()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	// The sample is what a user labeling w.r.t. the goal would produce.
	sel := goal.Evaluate(snap).Vector()
	for _, p := range s.Pos {
		if !sel[p] {
			t.Fatalf("fixture: positive %s not selected by goal", g.NodeName(p))
		}
	}
	for _, n := range s.Neg {
		if sel[n] {
			t.Fatalf("fixture: negative %s selected by goal", g.NodeName(n))
		}
	}
	learned, err := core.Learn(snap, s, core.Options{})
	if err != nil {
		t.Fatalf("learner abstained: %v", err)
	}
	want := query.MustParse(g.Alphabet(), "a")
	if !learned.EquivalentTo(want) {
		t.Fatalf("learned %v, want a", learned)
	}
	if !learned.EquivalentOn(snap, goal) {
		t.Fatal("learned query should be indistinguishable from the goal on this graph")
	}
	if learned.EquivalentTo(goal) {
		t.Fatal("a and (a·b)*·c are not equivalent as languages")
	}
}

func TestLearnerFigure1GeographicExample(t *testing.T) {
	// Section 1's motivating example: from N2, N6 positive and N5
	// negative, a consistent query must be found that behaves like
	// (tram+bus)*·cinema on the positives and negatives.
	g, s := paperfix.Figure1()
	snap := g.Snapshot()
	learned, err := core.Learn(snap, s, core.Options{})
	if err != nil {
		t.Fatalf("learner abstained: %v", err)
	}
	sel := learned.Evaluate(snap).Vector()
	for _, p := range s.Pos {
		if !sel[p] {
			t.Fatalf("positive %s not selected", g.NodeName(p))
		}
	}
	for _, n := range s.Neg {
		if sel[n] {
			t.Fatalf("negative %s selected", g.NodeName(n))
		}
	}
}

func TestLearnerConsistencyGuarantee(t *testing.T) {
	// Soundness (Definition 3.4): whenever the learner returns a query, it
	// is consistent with the sample. Exercised across the fixtures with
	// several samples.
	type fixture struct {
		name string
		g    *graph.Graph
		s    core.Sample
	}
	g0, s0 := paperfix.G0()
	f1, sf1 := paperfix.Figure1()
	f8, sf8 := paperfix.Figure8()
	fixtures := []fixture{{"G0", g0, s0}, {"Figure1", f1, sf1}, {"Figure8", f8, sf8}}
	for _, f := range fixtures {
		q, err := core.Learn(f.g.Snapshot(), f.s, core.Options{})
		if err != nil {
			t.Fatalf("%s: abstained: %v", f.name, err)
		}
		sel := q.Evaluate(f.g.Snapshot()).Vector()
		for _, p := range f.s.Pos {
			if !sel[p] {
				t.Errorf("%s: positive %d not selected", f.name, p)
			}
		}
		for _, n := range f.s.Neg {
			if sel[n] {
				t.Errorf("%s: negative %d selected", f.name, n)
			}
		}
	}
}

func TestLearnerEmptySampleAbstains(t *testing.T) {
	g, _ := paperfix.G0()
	if _, err := core.Learn(g.Snapshot(), core.Sample{}, core.Options{}); !errors.Is(err, core.ErrAbstain) {
		t.Fatalf("err = %v, want ErrAbstain", err)
	}
}

func TestLearnerRejectsContradictorySample(t *testing.T) {
	g, _ := paperfix.G0()
	v1, _ := g.NodeByName("v1")
	s := core.Sample{Pos: []graph.NodeID{v1}, Neg: []graph.NodeID{v1}}
	_, err := core.Learn(g.Snapshot(), s, core.Options{})
	if err == nil || errors.Is(err, core.ErrAbstain) {
		t.Fatalf("err = %v, want validation error", err)
	}
}

func TestLearnerOnlyPositives(t *testing.T) {
	// With no negatives every node's SCP is ε and the learned query is ε,
	// which selects everything — consistent with the (all-positive) sample.
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	v1, _ := g.NodeByName("v1")
	q, err := core.Learn(snap, core.Sample{Pos: []graph.NodeID{v1}}, core.Options{})
	if err != nil {
		t.Fatalf("abstained: %v", err)
	}
	if !q.Selects(snap, v1) {
		t.Fatal("positive not selected")
	}
	if !q.Accepts(words.Epsilon) {
		t.Fatalf("learned %v, want the ε query", q)
	}
}

func TestDisableGeneralizationAblation(t *testing.T) {
	// Without the merge phase the learner returns the disjunction of the
	// SCPs: on G0 that is c + a·b·c, which is consistent but, unlike the
	// generalized (a·b)*·c, not equal to the goal.
	g, s := paperfix.G0()
	q, err := core.Learn(g.Snapshot(), s, core.Options{K: 3, DisableGeneralization: true})
	if err != nil {
		t.Fatalf("abstained: %v", err)
	}
	want := query.MustParse(g.Alphabet(), "c+(a·b·c)")
	if !q.EquivalentTo(want) {
		t.Fatalf("learned %v, want c+(a·b·c)", q)
	}
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	if q.EquivalentTo(goal) {
		t.Fatal("without generalization the Kleene star cannot be learned")
	}
}

func TestConsistencyChecks(t *testing.T) {
	g, s := paperfix.G0()
	snap := g.Snapshot()
	if !core.Consistent(snap, s) {
		t.Fatal("G0 sample is consistent")
	}
	if !core.ConsistentWithin(snap, s, 3) {
		t.Fatal("G0 sample is consistent within k=3")
	}
	if core.ConsistentWithin(snap, s, 2) {
		t.Fatal("ν1's only escape is abc: not consistent within k=2")
	}
}

func TestSampleHelpers(t *testing.T) {
	s := core.Sample{Pos: []graph.NodeID{1, 2}, Neg: []graph.NodeID{3}}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
	if pos, ok := s.Labeled(2); !ok || !pos {
		t.Fatal("node 2 should be labeled positive")
	}
	if pos, ok := s.Labeled(3); !ok || pos {
		t.Fatal("node 3 should be labeled negative")
	}
	if _, ok := s.Labeled(9); ok {
		t.Fatal("node 9 is unlabeled")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
}

// TestLearnerStopsAtInconsistentPositive: a sink positive's only path is
// ε, which every negative covers, so no round of the k schedule can
// select it (Lemma 3.1). Its SCP search runs out of states below the
// bound in the first round, and the learner abstains there: the work,
// measured in allocations, does not grow with MaxK.
func TestLearnerStopsAtInconsistentPositive(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("a", "x", "b")
	g.AddEdgeByName("b", "y", "sink")
	g.AddEdgeByName("n", "x", "m")
	snap := g.Snapshot()
	id := func(name string) graph.NodeID {
		v, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("node %q missing", name)
		}
		return v
	}
	s := core.Sample{Pos: []graph.NodeID{id("a"), id("sink")}, Neg: []graph.NodeID{id("n")}}
	for _, maxK := range []int{8, 1 << 16} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := core.LearnDetailed(snap, s, core.Options{MaxK: maxK}); !errors.Is(err, core.ErrAbstain) {
				t.Fatalf("MaxK %d: err = %v, want ErrAbstain", maxK, err)
			}
		})
		if allocs > 64 {
			t.Errorf("MaxK %d: %v allocations per learn, want at most 64", maxK, allocs)
		}
	}
}
