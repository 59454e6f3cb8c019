package paperfix_test

import (
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
)

func TestG0ShapeMatchesFigure3(t *testing.T) {
	g, s := paperfix.G0()
	if g.NumNodes() != 7 {
		t.Fatalf("G0 has %d nodes, want 7", g.NumNodes())
	}
	if g.NumEdges() != 15 {
		t.Fatalf("G0 has %d edges, want 15", g.NumEdges())
	}
	if len(s.Pos) != 2 || len(s.Neg) != 2 {
		t.Fatalf("sample %d+/%d-", len(s.Pos), len(s.Neg))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestG0SampleLabelsMatchGoal(t *testing.T) {
	// The running example's sample is consistent with (a·b)*·c: positives
	// selected, negatives not.
	g, s := paperfix.G0()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sel := goal.Evaluate(g.Snapshot()).Vector()
	for _, p := range s.Pos {
		if !sel[p] {
			t.Errorf("positive %s not selected by the goal", g.NodeName(p))
		}
	}
	for _, n := range s.Neg {
		if sel[n] {
			t.Errorf("negative %s selected by the goal", g.NodeName(n))
		}
	}
}

func TestFigure1SampleConsistent(t *testing.T) {
	g, s := paperfix.Figure1()
	if !core.Consistent(g.Snapshot(), s) {
		t.Fatal("Figure 1 sample should be consistent")
	}
}

func TestFigure5SampleInconsistent(t *testing.T) {
	g, s := paperfix.Figure5()
	snap := g.Snapshot()
	if core.Consistent(snap, s) {
		t.Fatal("Figure 5 sample should be inconsistent")
	}
	// The positive's path language is infinite (self loops).
	if !snap.HasCycleFrom(s.Pos[0]) {
		t.Fatal("Figure 5 positive should have infinite paths")
	}
}

func TestFigure8SampleMatchesGoal(t *testing.T) {
	g, s := paperfix.Figure8()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sel := goal.Evaluate(snap).Vector()
	for _, p := range s.Pos {
		if !sel[p] {
			t.Errorf("positive %s not selected", g.NodeName(p))
		}
	}
	for _, n := range s.Neg {
		if sel[n] {
			t.Errorf("negative %s selected", g.NodeName(n))
		}
	}
	// The indistinguishability claim: a selects the same set.
	a := query.MustParse(g.Alphabet(), "a")
	if !a.EquivalentOn(snap, goal) {
		t.Fatal("a and (a·b)*·c must select the same nodes on Figure 8")
	}
}

func TestFigure10Unlabeled(t *testing.T) {
	g, s, u := paperfix.Figure10()
	if _, labeled := s.Labeled(u); labeled {
		t.Fatal("u must be unlabeled")
	}
	if !core.Consistent(g.Snapshot(), s) {
		t.Fatal("Figure 10 sample should be consistent")
	}
}
