package nodelabeled_test

import (
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/nodelabeled"
	"pathquery/internal/query"
)

func buildFigure2(t *testing.T) (*nodelabeled.Graph, *graph.Graph) {
	t.Helper()
	nl := nodelabeled.New(nil)
	add := func(name, label string) {
		if _, err := nl.AddNode(name, label); err != nil {
			t.Fatal(err)
		}
	}
	edge := func(from, to string) {
		if err := nl.AddEdgeByName(from, to); err != nil {
			t.Fatal(err)
		}
	}
	// Three workflows in the spirit of Figure 2.
	add("wf1", "Start")
	add("wf1_pur", "ProteinPurification")
	add("wf1_ms", "MassSpectrometry")
	edge("wf1", "wf1_pur")
	edge("wf1_pur", "wf1_ms")

	add("wf2", "Start")
	add("wf2_pur", "ProteinPurification")
	add("wf2_sep", "ProteinSeparation")
	add("wf2_ms", "MassSpectrometry")
	edge("wf2", "wf2_pur")
	edge("wf2_pur", "wf2_sep")
	edge("wf2_sep", "wf2_ms")

	add("wf3", "Start")
	add("wf3_rna", "RNAExtraction")
	add("wf3_seq", "Sequencing")
	edge("wf3", "wf3_rna")
	edge("wf3_rna", "wf3_seq")

	return nl, nl.ToEdgeLabeled()
}

func TestEncodingSpellsNodeLabels(t *testing.T) {
	// A path ν0→ν1→ν2 spells label(ν1)·label(ν2) after encoding.
	_, g := buildFigure2(t)
	snap := g.Snapshot()
	wf1, _ := g.NodeByName("wf1")
	goal := query.MustParse(g.Alphabet(), "ProteinPurification·MassSpectrometry")
	if !goal.Selects(snap, wf1) {
		t.Fatal("wf1 should match Purification·MassSpectrometry")
	}
	wf3, _ := g.NodeByName("wf3")
	if goal.Selects(snap, wf3) {
		t.Fatal("wf3 should not match")
	}
}

func TestLearnOnNodeLabeledWorkflows(t *testing.T) {
	// The paper's seamless-application claim: the learner works unchanged
	// on the encoded graph, inferring the Figure 2 pattern from labeled
	// workflow entry points.
	_, g := buildFigure2(t)
	snap := g.Snapshot()
	node := func(n string) graph.NodeID {
		id, ok := g.NodeByName(n)
		if !ok {
			t.Fatalf("missing %q", n)
		}
		return id
	}
	s := core.Sample{
		Pos: []graph.NodeID{node("wf1"), node("wf2")},
		Neg: []graph.NodeID{node("wf3"), node("wf2_pur")},
	}
	learned, err := core.Learn(snap, s, core.Options{})
	if err != nil {
		t.Fatalf("abstained: %v", err)
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

func TestRelabelRejected(t *testing.T) {
	nl := nodelabeled.New(nil)
	if _, err := nl.AddNode("x", "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := nl.AddNode("x", "B"); err == nil {
		t.Fatal("relabeling accepted")
	}
	if _, err := nl.AddNode("x", "A"); err != nil {
		t.Fatalf("idempotent re-add rejected: %v", err)
	}
}

func TestAddEdgeByNameErrors(t *testing.T) {
	nl := nodelabeled.New(nil)
	nl.AddNode("a", "A")
	if err := nl.AddEdgeByName("a", "ghost"); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := nl.AddEdgeByName("ghost", "a"); err == nil {
		t.Fatal("edge from unknown node accepted")
	}
}

func TestWorkflowCorpusGoalFraction(t *testing.T) {
	nl, g, err := datasets.WorkflowCorpus(datasets.WorkflowConfig{
		Workflows: 200, MaxStages: 5, TargetFraction: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumNodes() != g.NumNodes() {
		t.Fatalf("encoding changed node count: %d vs %d", nl.NumNodes(), g.NumNodes())
	}
	goal := datasets.WorkflowGoal(g)
	// Count matching workflow entries.
	matched := 0
	for i := 0; i < 200; i++ {
		id, ok := g.NodeByName(fmtName(i))
		if !ok {
			t.Fatalf("missing wf%d", i)
		}
		if goal.Selects(g.Snapshot(), id) {
			matched++
		}
	}
	if matched < 35 || matched > 90 {
		t.Fatalf("matched %d of 200 workflows, want ≈60", matched)
	}
}

func fmtName(i int) string { return "wf" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestInteractiveOnWorkflowCorpus(t *testing.T) {
	// End-to-end: interactive learning of the workflow pattern on the
	// generated corpus converges to a query matching the goal's selection.
	_, g, err := datasets.WorkflowCorpus(datasets.WorkflowConfig{
		Workflows: 60, MaxStages: 4, TargetFraction: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	goal := datasets.WorkflowGoal(g)
	sess := interactive.NewSession(g.Snapshot(), interactive.Options{
		Strategy: interactive.KS{},
		Seed:     3,
	})
	res, err := sess.Run(interactive.NewQueryOracle(g.Snapshot(), goal),
		interactive.ExactMatch(g.Snapshot(), goal))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted != interactive.HaltSatisfied {
		t.Fatalf("halted %v after %d labels", res.Halted, res.Labels())
	}
	if !res.Query.EquivalentOn(g.Snapshot(), goal) {
		t.Fatalf("learned %v", res.Query)
	}
	// The interactive session must beat labeling everything.
	if res.Labels() >= g.NumNodes() {
		t.Fatalf("used %d labels on %d nodes", res.Labels(), g.NumNodes())
	}
}
