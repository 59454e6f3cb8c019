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

func pairOf(t *testing.T, g *graph.Graph, from, to string) core.Pair {
	t.Helper()
	f, ok := g.NodeByName(from)
	if !ok {
		t.Fatalf("node %q missing", from)
	}
	tt, ok := g.NodeByName(to)
	if !ok {
		t.Fatalf("node %q missing", to)
	}
	return core.Pair{From: f, To: tt}
}

func TestLearnBinaryFigure1(t *testing.T) {
	// Binary semantics on the geographic graph: (N2, C1) and (N6, C2) are
	// reachable via transport-then-cinema, (N5, C1) is not.
	g, _ := paperfix.Figure1()
	s := core.PairSample{
		Pos: []core.Pair{pairOf(t, g, "N2", "C1"), pairOf(t, g, "N6", "C2")},
		Neg: []core.Pair{pairOf(t, g, "N5", "C1"), pairOf(t, g, "N5", "R1")},
	}
	q, err := core.LearnBinary(g.Snapshot(), s, core.Options{})
	if err != nil {
		t.Fatalf("abstained: %v", err)
	}
	for _, p := range s.Pos {
		if !q.SelectsPair(g.Snapshot(), p.From, p.To) {
			t.Errorf("positive pair (%s,%s) not selected", g.NodeName(p.From), g.NodeName(p.To))
		}
	}
	for _, n := range s.Neg {
		if q.SelectsPair(g.Snapshot(), n.From, n.To) {
			t.Errorf("negative pair (%s,%s) selected", g.NodeName(n.From), g.NodeName(n.To))
		}
	}
}

func TestLearnBinarySmallerCandidateSpace(t *testing.T) {
	// The paper notes binary examples have fewer candidate paths because
	// the destination is fixed. On G0, (ν3, ν5) admits c directly even
	// with no negatives, while the monadic SCP for ν3 with no negatives
	// would be ε.
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	v3, _ := g.NodeByName("v3")
	v5, _ := g.NodeByName("v5")
	s := core.PairSample{Pos: []core.Pair{{From: v3, To: v5}}}
	q, err := core.LearnBinary(snap, s, core.Options{})
	if err != nil {
		t.Fatalf("abstained: %v", err)
	}
	if !q.SelectsPair(snap, v3, v5) {
		t.Fatal("positive pair not selected")
	}
	// The smallest pair path is c (ε cannot relate the distinct endpoints),
	// so the learned language contains c.
	c, _ := g.Alphabet().Lookup("c")
	if !q.Accepts(words.Word{c}) {
		t.Fatalf("learned %v; expected a language containing c", q)
	}
	// v5 has no path to v3 at all, so the pair (v5, v3) stays unselected
	// whatever the generalization did.
	if q.SelectsPair(snap, v5, v3) {
		t.Fatal("(v5, v3) selected despite having no connecting path")
	}
}

func TestLearnBinaryAbstains(t *testing.T) {
	// A pair with every connecting path covered by a negative pair: only
	// path from pos.From to pos.To is "a", and the negative pair has the
	// same "a" path.
	g := graph.New(nil)
	g.AddEdgeByName("p", "a", "q")
	g.AddEdgeByName("x", "a", "y")
	p, _ := g.NodeByName("p")
	qn, _ := g.NodeByName("q")
	x, _ := g.NodeByName("x")
	y, _ := g.NodeByName("y")
	s := core.PairSample{
		Pos: []core.Pair{{From: p, To: qn}},
		Neg: []core.Pair{{From: x, To: y}},
	}
	if _, err := core.LearnBinary(g.Snapshot(), s, core.Options{}); !errors.Is(err, core.ErrAbstain) {
		t.Fatalf("err = %v, want ErrAbstain", err)
	}
}

func TestLearnBinaryValidation(t *testing.T) {
	g, _ := paperfix.G0()
	v1, _ := g.NodeByName("v1")
	v2, _ := g.NodeByName("v2")
	s := core.PairSample{
		Pos: []core.Pair{{From: v1, To: v2}},
		Neg: []core.Pair{{From: v1, To: v2}},
	}
	if _, err := core.LearnBinary(g.Snapshot(), s, core.Options{}); err == nil || errors.Is(err, core.ErrAbstain) {
		t.Fatalf("err = %v, want validation error", err)
	}
}

func TestLearnNary(t *testing.T) {
	// 3-ary tuples on Figure 1: (neighborhood, neighborhood, cinema) via
	// (transport, cinema-visit) component queries.
	g, _ := paperfix.Figure1()
	snap := g.Snapshot()
	n2, _ := g.NodeByName("N2")
	n1, _ := g.NodeByName("N1")
	n4, _ := g.NodeByName("N4")
	c1, _ := g.NodeByName("C1")
	n5, _ := g.NodeByName("N5")
	r1, _ := g.NodeByName("R1")
	n3, _ := g.NodeByName("N3")
	r2, _ := g.NodeByName("R2")
	s := core.TupleSample{
		Pos: [][]graph.NodeID{
			{n2, n1, n4},
			{n1, n4, c1},
		},
		Neg: [][]graph.NodeID{
			{n5, r1, r1},
			{n5, n3, r2},
		},
	}
	nq, err := core.LearnNary(snap, s, core.Options{})
	if err != nil {
		t.Fatalf("abstained: %v", err)
	}
	if nq.Arity() != 3 {
		t.Fatalf("arity = %d", nq.Arity())
	}
	for _, tp := range s.Pos {
		ok, err := nq.SelectsTuple(snap, tp)
		if err != nil || !ok {
			t.Errorf("positive tuple %v not selected (err %v)", tp, err)
		}
	}
	for _, tn := range s.Neg {
		ok, err := nq.SelectsTuple(snap, tn)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("negative tuple %v selected", tn)
		}
	}
}

func TestLearnNaryValidation(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	if _, err := core.LearnNary(snap, core.TupleSample{}, core.Options{}); err == nil {
		t.Fatal("empty tuple sample should fail validation")
	}
	v1, _ := g.NodeByName("v1")
	v2, _ := g.NodeByName("v2")
	mixed := core.TupleSample{
		Pos: [][]graph.NodeID{{v1, v2}},
		Neg: [][]graph.NodeID{{v1, v2, v1}},
	}
	if _, err := core.LearnNary(snap, mixed, core.Options{}); err == nil {
		t.Fatal("mixed arities should fail validation")
	}
}

func TestNaryQuerySelectTuples(t *testing.T) {
	g, _ := paperfix.Figure1()
	snap := g.Snapshot()
	transport := query.MustParse(g.Alphabet(), "(tram+bus)*")
	cinema := query.MustParse(g.Alphabet(), "cinema")
	nq, err := query.NewNary(transport, cinema)
	if err != nil {
		t.Fatal(err)
	}
	tuples := nq.SelectTuples(snap)
	if len(tuples) == 0 {
		t.Fatal("no tuples selected")
	}
	// Every returned tuple must satisfy SelectsTuple.
	for _, tp := range tuples {
		ok, err := nq.SelectsTuple(snap, tp)
		if err != nil || !ok {
			t.Fatalf("inconsistent tuple %v", tp)
		}
	}
}

// TestLearnBinaryStopsAtInconsistentPair: a positive pair leaving a sink
// has no path at all, so its pair search runs out of states in the first
// round and the learner abstains there, whatever MaxK.
func TestLearnBinaryStopsAtInconsistentPair(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("p", "a", "q")
	g.AddEdgeByName("x", "a", "y")
	s := core.PairSample{
		Pos: []core.Pair{pairOf(t, g, "p", "q"), pairOf(t, g, "q", "p")},
		Neg: []core.Pair{pairOf(t, g, "x", "y")},
	}
	snap := g.Snapshot()
	for _, maxK := range []int{8, 1 << 16} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := core.LearnBinary(snap, s, core.Options{MaxK: maxK}); !errors.Is(err, core.ErrAbstain) {
				t.Fatalf("MaxK %d: err = %v, want ErrAbstain", maxK, err)
			}
		})
		if allocs > 64 {
			t.Errorf("MaxK %d: %v allocations per learn, want at most 64", maxK, allocs)
		}
	}
}
