package pathquery_test

import (
	"errors"
	"testing"

	"pathquery"
	"pathquery/internal/interactive"
	"pathquery/internal/paperfix"
)

// The facade tests mirror the paper's running examples end to end through
// the public API only (plus paperfix for fixture graphs).

func TestFacadeQuickstartScenario(t *testing.T) {
	g := pathquery.NewGraph(nil)
	g.AddEdgeByName("N1", "tram", "N4")
	g.AddEdgeByName("N2", "bus", "N1")
	g.AddEdgeByName("N4", "cinema", "C1")
	g.AddEdgeByName("N5", "restaurant", "R1")
	n2, _ := g.NodeByName("N2")
	n5, _ := g.NodeByName("N5")

	q, err := pathquery.Learn(g.Snapshot(), pathquery.Sample{
		Pos: []pathquery.NodeID{n2},
		Neg: []pathquery.NodeID{n5},
	}, pathquery.Options{})
	if err != nil {
		t.Fatalf("abstained: %v", err)
	}
	if !q.Selects(g.Snapshot(), n2) {
		t.Fatal("positive not selected")
	}
	if q.Selects(g.Snapshot(), n5) {
		t.Fatal("negative selected")
	}
}

func TestFacadeParseAndScore(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal, err := pathquery.ParseQuery(g.Alphabet(), "(a·b)*·c")
	if err != nil {
		t.Fatal(err)
	}
	same := pathquery.Score(snap, goal, goal)
	if !same.Exact() || same.F1() != 1 {
		t.Fatal("self-score should be exact")
	}
	other, _ := pathquery.ParseQuery(g.Alphabet(), "b")
	if pathquery.Score(snap, goal, other).Exact() {
		t.Fatal("different selections scored exact")
	}
}

func TestFacadeLearnPaperExample(t *testing.T) {
	g, s := paperfix.G0()
	res, err := pathquery.LearnDetailed(g.Snapshot(), s, pathquery.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	goal, _ := pathquery.ParseQuery(g.Alphabet(), "(a·b)*·c")
	if !res.Query.EquivalentTo(goal) {
		t.Fatalf("learned %v", res.Query)
	}
}

func TestFacadeAbstain(t *testing.T) {
	g, s := paperfix.Figure5()
	_, err := pathquery.Learn(g.Snapshot(), s, pathquery.Options{})
	if !errors.Is(err, pathquery.ErrAbstain) {
		t.Fatalf("err = %v, want ErrAbstain", err)
	}
}

func TestFacadeConsistent(t *testing.T) {
	g, s := paperfix.G0()
	if !pathquery.Consistent(g.Snapshot(), s) {
		t.Fatal("G0 sample is consistent")
	}
	g5, s5 := paperfix.Figure5()
	if pathquery.Consistent(g5.Snapshot(), s5) {
		t.Fatal("Figure 5 sample is inconsistent")
	}
}

func TestFacadeInteractiveSession(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal, _ := pathquery.ParseQuery(g.Alphabet(), "(a·b)*·c")
	sess := pathquery.NewSession(snap, pathquery.SessionOptions{
		Strategy: interactive.KS{},
		Seed:     1,
	})
	res, err := sess.Run(
		pathquery.NewQueryOracle(snap, goal),
		pathquery.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Query.EquivalentOn(snap, goal) {
		t.Fatalf("interactive learned %v", res.Query)
	}
}

func TestFacadeCharacteristicSample(t *testing.T) {
	alpha := pathquery.NewAlphabet()
	goal, err := pathquery.ParseQuery(alpha, "(a·b)*·c")
	if err != nil {
		t.Fatal(err)
	}
	g, s, err := pathquery.CharacteristicSample(goal)
	if err != nil {
		t.Fatal(err)
	}
	learned, err := pathquery.Learn(g.Snapshot(), s, pathquery.Options{
		K: pathquery.CharacteristicK(goal),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !learned.EquivalentTo(goal) {
		t.Fatalf("learned %v from characteristic sample", learned)
	}
}

func TestFacadeBinaryAndNary(t *testing.T) {
	g := pathquery.NewGraph(nil)
	g.AddEdgeByName("a", "x", "b")
	g.AddEdgeByName("b", "y", "c")
	g.AddEdgeByName("d", "z", "e")
	na, _ := g.NodeByName("a")
	nb, _ := g.NodeByName("b")
	nc, _ := g.NodeByName("c")
	nd, _ := g.NodeByName("d")
	ne, _ := g.NodeByName("e")

	bq, err := pathquery.LearnBinary(g.Snapshot(), pathquery.PairSample{
		Pos: []pathquery.Pair{{From: na, To: nb}},
		Neg: []pathquery.Pair{{From: nd, To: ne}},
	}, pathquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bq.SelectsPair(g.Snapshot(), na, nb) {
		t.Fatal("binary positive missed")
	}

	nq, err := pathquery.LearnNary(g.Snapshot(), pathquery.TupleSample{
		Pos: [][]pathquery.NodeID{{na, nb, nc}},
		Neg: [][]pathquery.NodeID{{nd, ne, na}},
	}, pathquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := nq.SelectsTuple(g.Snapshot(), []pathquery.NodeID{na, nb, nc})
	if err != nil || !ok {
		t.Fatalf("n-ary positive missed: %v", err)
	}
}

func TestFacadeIsInformative(t *testing.T) {
	g, s, u := paperfix.Figure10()
	if pathquery.IsInformative(g.Snapshot(), s, u) {
		t.Fatal("Figure 10's u is certain, not informative")
	}
}
