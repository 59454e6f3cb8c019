package certain_test

import (
	"testing"

	"pathquery/internal/certain"
	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
)

func TestCertainFigure10(t *testing.T) {
	// The paper's Figure 10: the unlabeled node belongs to Cert+ — every
	// consistent query must accept b, and the node covers b.
	g, s, u := paperfix.Figure10()
	snap := g.Snapshot()
	if !certain.IsCertainPositive(snap, s, u) {
		t.Fatal("u should be certain-positive")
	}
	if certain.IsCertainNegative(snap, s, u) {
		t.Fatal("u is not certain-negative")
	}
	if got := certain.Classify(snap, s, u); got != certain.CertainPositive {
		t.Fatalf("Classify(u) = %v", got)
	}
	if certain.IsInformative(snap, s, u) {
		t.Fatal("u should not be informative")
	}
	// "labeling it otherwise (i.e., with a –) leads to an inconsistent
	// sample": adding u to S− breaks consistency.
	bad := core.Sample{Pos: s.Pos, Neg: append(append([]graph.NodeID{}, s.Neg...), u)}
	if core.Consistent(snap, bad) {
		t.Fatal("labeling u negative should make the sample inconsistent")
	}
}

func TestCertainNegativeDeadEnd(t *testing.T) {
	// A node whose entire (finite) path language is covered by a negative
	// example is certain-negative.
	g := graph.New(nil)
	g.AddEdgeByName("neg", "a", "x")
	g.AddEdgeByName("u", "a", "y")
	g.AddEdgeByName("pos", "b", "z")
	pos, _ := g.NodeByName("pos")
	neg, _ := g.NodeByName("neg")
	u, _ := g.NodeByName("u")
	s := core.Sample{Pos: []graph.NodeID{pos}, Neg: []graph.NodeID{neg}}
	// paths(u) = {ε, a} ⊆ paths(neg) = {ε, a}.
	if !certain.IsCertainNegative(g.Snapshot(), s, u) {
		t.Fatal("u should be certain-negative")
	}
	if certain.IsInformative(g.Snapshot(), s, u) {
		t.Fatal("u should not be informative")
	}
}

func TestInformativeNode(t *testing.T) {
	// A node with a fresh escaping path is informative: some consistent
	// query selects it, some doesn't.
	g := graph.New(nil)
	g.AddEdgeByName("pos", "a", "x")
	g.AddEdgeByName("neg", "b", "y")
	g.AddEdgeByName("u", "c", "z")
	pos, _ := g.NodeByName("pos")
	neg, _ := g.NodeByName("neg")
	u, _ := g.NodeByName("u")
	s := core.Sample{Pos: []graph.NodeID{pos}, Neg: []graph.NodeID{neg}}
	if !certain.IsInformative(g.Snapshot(), s, u) {
		t.Fatal("u should be informative")
	}
	if got := certain.Classify(g.Snapshot(), s, u); got != certain.Informative {
		t.Fatalf("Classify(u) = %v", got)
	}
}

func TestClassifyLabeled(t *testing.T) {
	g, s := paperfix.G0()
	if got := certain.Classify(g.Snapshot(), s, s.Pos[0]); got != certain.AlreadyLabeled {
		t.Fatalf("Classify(labeled) = %v", got)
	}
}

func TestKInformativeImpliesInformative(t *testing.T) {
	// On G0 with the paper's sample, every k-informative node must be
	// informative (Section 4.2: "if a node is k-informative, then it is
	// also informative").
	g, s := paperfix.G0()
	snap := g.Snapshot()
	for _, k := range []int{1, 2, 3} {
		for v := 0; v < g.NumNodes(); v++ {
			nu := graph.NodeID(v)
			if certain.IsKInformative(snap, s, nu, k) && !certain.IsInformative(snap, s, nu) {
				t.Fatalf("k=%d: node %s is k-informative but not informative", k, g.NodeName(nu))
			}
		}
	}
}

func TestPropagateMatchesClassify(t *testing.T) {
	g, s := paperfix.G0()
	snap := g.Snapshot()
	labels := certain.Propagate(snap, s)
	for v := 0; v < g.NumNodes(); v++ {
		if got := certain.Classify(snap, s, graph.NodeID(v)); got != labels[v] {
			t.Fatalf("Propagate[%d] = %v, Classify = %v", v, labels[v], got)
		}
	}
}

func TestLabelString(t *testing.T) {
	for l, want := range map[certain.Label]string{
		certain.Informative:     "informative",
		certain.CertainPositive: "certain+",
		certain.CertainNegative: "certain-",
		certain.AlreadyLabeled:  "labeled",
	} {
		if l.String() != want {
			t.Errorf("Label(%d).String() = %q", l, l.String())
		}
	}
}
