package definability_test

import (
	"errors"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/definability"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
)

func nodesOf(t *testing.T, g *graph.Graph, names ...string) []graph.NodeID {
	t.Helper()
	out := make([]graph.NodeID, len(names))
	for i, n := range names {
		id, ok := g.NodeByName(n)
		if !ok {
			t.Fatalf("missing node %q", n)
		}
		out[i] = id
	}
	return out
}

func TestDefineExactSet(t *testing.T) {
	// On G0, {ν1, ν3} is definable — (a·b)*·c selects exactly it.
	g, _ := paperfix.G0()
	x := nodesOf(t, g, "v1", "v3")
	q, err := definability.Define(g.Snapshot(), x, core.Options{})
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	sel := q.Evaluate(g.Snapshot()).Nodes()
	if len(sel) != 2 || sel[0] != x[0] || sel[1] != x[1] {
		t.Fatalf("defined query selects %v, want %v", sel, x)
	}
	if !definability.IsDefinableExact(g.Snapshot(), x) {
		t.Fatal("exact check disagrees")
	}
}

func TestUndefinableSet(t *testing.T) {
	// On Figure 5, the positive node's paths are all shared with the other
	// nodes, so {pos} alone is not definable.
	g, s := paperfix.Figure5()
	snap := g.Snapshot()
	x := s.Pos
	if definability.IsDefinableExact(snap, x) {
		t.Fatal("Figure 5 positive set should not be definable")
	}
	if _, err := definability.Define(snap, x, core.Options{}); !errors.Is(err, definability.ErrNotDefinable) {
		t.Fatalf("err = %v, want ErrNotDefinable", err)
	}
}

func TestDefineEmptySet(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	q, err := definability.Define(snap, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Evaluate(snap).Nodes()) != 0 {
		t.Fatal("empty set's defining query selects nodes")
	}
	if !definability.IsDefinableExact(snap, nil) {
		t.Fatal("empty set is always definable")
	}
}

// TestDefineEmptySetKeyStable: the empty set's defining query is ∅, whose
// CacheKey stays the same when the graph's alphabet grows.
func TestDefineEmptySetKeyStable(t *testing.T) {
	g, _ := paperfix.G0()
	q, err := definability.Define(g.Snapshot(), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := q.CacheKey()
	g.AddEdgeByName("v1", "d", "v2")
	grown := g.Snapshot()
	if grown.Alphabet().Size() != 4 {
		t.Fatalf("alphabet has %d labels, want 4", grown.Alphabet().Size())
	}
	q2, err := definability.Define(grown, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.CacheKey(); got != key {
		t.Fatalf("∅ keys %q after a label is interned, %q before", got, key)
	}
}

func TestDefineWholeGraph(t *testing.T) {
	// The whole node set is defined by ε.
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	q, err := definability.Define(snap, g.Nodes(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.Evaluate(snap).Nodes()); got != g.NumNodes() {
		t.Fatalf("whole-graph query selects %d of %d", got, g.NumNodes())
	}
}

func TestLearningVsDefinability(t *testing.T) {
	// The paper's related-work distinction: a sample can be consistent
	// (learnable) while its positive set is not definable. On Figure 1,
	// {N2} with negative {N5} is consistent, but selecting *exactly* {N2}
	// requires no other node to be selected — N6 shares N2's bus-shaped
	// paths? Construct the contrast explicitly: {N2, N6} as positives is
	// learnable with N5 negative, while exactness additionally forces N1
	// and N4 (which share the cinema reachability) to be excluded.
	g, _ := paperfix.Figure1()
	x := nodesOf(t, g, "N2", "N6")
	s := core.Sample{Pos: x, Neg: nodesOf(t, g, "N5")}
	if !core.Consistent(g.Snapshot(), s) {
		t.Fatal("sample should be consistent")
	}
	// Definability of {N2, N6}: the bus query selects exactly those two
	// (only N2 and N6 have bus edges), so this set IS definable — and the
	// defining query must not select N1 or N4.
	q, err := definability.Define(g.Snapshot(), x, core.Options{})
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	sel := q.Evaluate(g.Snapshot()).Vector()
	n1 := nodesOf(t, g, "N1")[0]
	if sel[n1] {
		t.Fatal("defining query must exclude N1")
	}
	goal := query.MustParse(g.Alphabet(), "bus")
	if !q.EquivalentOn(g.Snapshot(), goal) {
		t.Fatalf("defined %v; bus defines this set", q)
	}
}

func TestIsDefinableBoundedAgreesOnSmallGraphs(t *testing.T) {
	// Bounded and exact deciders agree on the fixtures (SCPs are short).
	g, _ := paperfix.G0()
	cases := [][]string{
		{"v1", "v3"},
		{"v5"},
		{"v1"},
		{"v2", "v7"},
	}
	for _, names := range cases {
		x := nodesOf(t, g, names...)
		exact := definability.IsDefinableExact(g.Snapshot(), x)
		bounded := definability.IsDefinable(g.Snapshot(), x, core.Options{})
		if bounded && !exact {
			t.Fatalf("%v: bounded says definable, exact disagrees", names)
		}
		// bounded may under-approximate; exact=true with bounded=false is
		// allowed but does not occur on G0 with the default schedule.
		if exact && !bounded {
			t.Logf("%v: exact definable but bounded abstained (acceptable)", names)
		}
	}
}
