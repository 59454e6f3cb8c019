package interactive_test

import (
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
)

func TestSessionLearnsPaperGoalOnG0(t *testing.T) {
	// Interactive learning of (a·b)*·c on G0 must converge to a query
	// selecting exactly the goal's nodes, for both strategies.
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	for _, strat := range []interactive.Strategy{interactive.KR{}, interactive.KS{}} {
		sess := interactive.NewSession(snap, interactive.Options{Strategy: strat, Seed: 1})
		oracle := interactive.NewQueryOracle(snap, goal)
		res, err := sess.Run(oracle, interactive.ExactMatch(snap, goal))
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.Halted != interactive.HaltSatisfied {
			t.Fatalf("%s: halted %v after %d labels", strat.Name(), res.Halted, res.Labels())
		}
		if !res.Query.EquivalentOn(snap, goal) {
			t.Fatalf("%s: learned %v not equivalent on G0", strat.Name(), res.Query)
		}
		if res.Labels() == 0 || res.Labels() > g.NumNodes() {
			t.Fatalf("%s: %d labels", strat.Name(), res.Labels())
		}
	}
}

func TestSessionNeverProposesLabeledNode(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "a")
	sess := interactive.NewSession(snap, interactive.Options{Strategy: interactive.KR{}, Seed: 7})
	oracle := interactive.NewQueryOracle(snap, goal)
	res, err := sess.Run(oracle, interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.NodeID]bool)
	for _, it := range res.Interactions {
		if seen[it.Node] {
			t.Fatalf("node %d proposed twice", it.Node)
		}
		seen[it.Node] = true
	}
}

func TestSessionDeterministicGivenSeed(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	run := func() []graph.NodeID {
		sess := interactive.NewSession(snap, interactive.Options{Strategy: interactive.KR{}, Seed: 42})
		res, err := sess.Run(interactive.NewQueryOracle(snap, goal), interactive.ExactMatch(snap, goal))
		if err != nil {
			t.Fatal(err)
		}
		var order []graph.NodeID
		for _, it := range res.Interactions {
			order = append(order, it.Node)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestKSPrefersSmallestCount(t *testing.T) {
	// Build a graph with two informative nodes: one with many non-covered
	// paths, one with a single one. kS must propose the latter.
	g := graph.New(nil)
	// rich: three distinct 1-paths.
	g.AddEdgeByName("rich", "a", "x")
	g.AddEdgeByName("rich", "b", "x")
	g.AddEdgeByName("rich", "c", "x")
	// poor: a single 1-path.
	g.AddEdgeByName("poor", "a", "x")
	ks := interactive.KS{}
	sess := interactive.NewSession(g.Snapshot(), interactive.Options{Strategy: ks, Seed: 1})
	_ = sess
	ctx := &interactive.Context{
		Snap:     g.Snapshot(),
		Coverage: nil,
		K:        2,
	}
	// Build the context via a session-free path: coverage over no negatives.
	ctx.Coverage = ctx.NewCoverage()
	nu, ok := ks.Next(ctx)
	if !ok {
		t.Fatal("no k-informative node found")
	}
	poor, _ := g.NodeByName("poor")
	// With no negatives both nodes count their ε and 1-paths; poor has
	// fewer. Dead-end x has exactly one (ε), even fewer — accept either
	// poor or x; rich must not win.
	rich, _ := g.NodeByName("rich")
	if nu == rich {
		t.Fatalf("kS proposed the node with the most non-covered paths (%d)", nu)
	}
	_ = poor
}

func TestHaltMaxInteractions(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sess := interactive.NewSession(snap, interactive.Options{
		Strategy:        interactive.KR{},
		Seed:            3,
		MaxInteractions: 1,
	})
	res, err := sess.Run(interactive.NewQueryOracle(snap, goal), func(q *query.Query) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted != interactive.HaltMaxInteractions {
		t.Fatalf("halted %v", res.Halted)
	}
	if res.Labels() != 1 {
		t.Fatalf("labels = %d, want 1", res.Labels())
	}
}

func TestHaltNoInformativeNodes(t *testing.T) {
	// A graph with no edges: every node has only the ε path; after the
	// first negative label, nothing is k-informative.
	g := graph.New(nil)
	g.AddNode("a")
	g.AddNode("b")
	g.AddNode("c")
	// Goal selecting nothing: every oracle answer is negative.
	goal := query.MustParse(g.Alphabet(), "zzz")
	sess := interactive.NewSession(g.Snapshot(), interactive.Options{Strategy: interactive.KR{}, Seed: 5})
	res, err := sess.Run(interactive.NewQueryOracle(g.Snapshot(), goal), func(q *query.Query) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted != interactive.HaltNoInformativeNodes {
		t.Fatalf("halted %v after %d labels", res.Halted, res.Labels())
	}
}

func TestSessionInteractionDiagnostics(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sess := interactive.NewSession(snap, interactive.Options{Strategy: interactive.KS{}, Seed: 9})
	res, err := sess.Run(interactive.NewQueryOracle(snap, goal), interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Interactions {
		if len(it.Neighborhood) == 0 {
			t.Fatalf("interaction %d has empty neighborhood", i)
		}
		found := false
		for _, v := range it.Neighborhood {
			if v == it.Node {
				found = true
			}
		}
		if !found {
			t.Fatalf("interaction %d: proposed node missing from its neighborhood", i)
		}
		if it.K < 2 {
			t.Fatalf("interaction %d: k = %d", i, it.K)
		}
	}
	if res.LabelFraction(snap) <= 0 || res.LabelFraction(snap) > 1 {
		t.Fatalf("label fraction = %v", res.LabelFraction(snap))
	}
	if res.MeanTimeBetweenInteractions() < 0 {
		t.Fatal("negative mean time")
	}
}

func TestOracleLabelsMatchGoal(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "a")
	oracle := interactive.NewQueryOracle(snap, goal)
	sel := goal.Evaluate(snap).Vector()
	for v := 0; v < g.NumNodes(); v++ {
		if oracle.Label(graph.NodeID(v)) != sel[v] {
			t.Fatalf("oracle disagrees with goal at %d", v)
		}
	}
}

func TestLabelRejectsDuplicates(t *testing.T) {
	g, _ := paperfix.G0()
	sess := interactive.NewSession(g.Snapshot(), interactive.Options{})
	if err := sess.Label(0, true); err != nil {
		t.Fatal(err)
	}
	if err := sess.Label(0, false); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

// TestLabelRejectsOutOfRangeNodes checks that a node id outside the
// session's snapshot is refused without touching the sample, so one bad
// label cannot make every later Learn fail, and that Resume refuses a
// saved sample naming such a node.
func TestLabelRejectsOutOfRangeNodes(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("x", "a", "y")
	snap := g.Snapshot()
	x, _ := g.NodeByName("x")
	y, _ := g.NodeByName("y")
	sess := interactive.NewSession(snap, interactive.Options{})
	if err := sess.Label(x, true); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []graph.NodeID{99, graph.NodeID(snap.NumNodes()), -1} {
		for _, positive := range []bool{true, false} {
			if err := sess.Label(bad, positive); err == nil {
				t.Fatalf("Label(%d, %v) accepted a node outside the %d-node snapshot",
					bad, positive, snap.NumNodes())
			}
		}
	}
	if s := sess.Sample(); len(s.Pos) != 1 || s.Pos[0] != x || len(s.Neg) != 0 {
		t.Fatalf("rejected labels changed the sample: %+v", s)
	}
	if err := sess.Label(y, false); err != nil {
		t.Fatal(err)
	}
	q, err := sess.Learn()
	if err != nil || q == nil {
		t.Fatalf("Learn after rejected labels = %v, %v; want a query", q, err)
	}
	if !q.Selects(snap, x) || q.Selects(snap, y) {
		t.Fatalf("learned %v does not separate x from y", q)
	}

	for _, bad := range []core.Sample{
		{Pos: []graph.NodeID{x}, Neg: []graph.NodeID{99}},
		{Pos: []graph.NodeID{-1}},
	} {
		if _, err := interactive.Resume(snap, bad, interactive.Options{}); err == nil {
			t.Fatalf("Resume accepted out-of-range sample %+v", bad)
		}
	}
}

func TestInteractiveBeatsStaticOnLabels(t *testing.T) {
	// The paper's headline interactive result, in miniature: interactive
	// sessions need far fewer labels than labeling everything. On G0 the
	// goal needs at most 4 labels interactively (|V| = 7).
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sess := interactive.NewSession(snap, interactive.Options{Strategy: interactive.KS{}, Seed: 11})
	res, err := sess.Run(interactive.NewQueryOracle(snap, goal), interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted != interactive.HaltSatisfied {
		t.Fatalf("halted %v", res.Halted)
	}
	if res.Labels() >= g.NumNodes() {
		t.Fatalf("interactive used %d labels on a %d-node graph", res.Labels(), g.NumNodes())
	}
}

func TestSessionSampleStaysConsistentWithOracle(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sess := interactive.NewSession(snap, interactive.Options{Strategy: interactive.KR{}, Seed: 13})
	oracle := interactive.NewQueryOracle(snap, goal)
	res, err := sess.Run(oracle, interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	s := sess.Sample()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !core.Consistent(snap, s) {
		t.Fatal("oracle-labeled sample must be consistent")
	}
}
