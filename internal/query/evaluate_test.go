package query_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/graph"
	"pathquery/internal/query"
)

func TestParseSemantics(t *testing.T) {
	for name, want := range map[string]query.Semantics{
		"":          query.SemanticsNodes,
		"nodes":     query.SemanticsNodes,
		"pairsFrom": query.SemanticsPairsFrom,
		"witness":   query.SemanticsWitness,
		"count":     query.SemanticsCount,
		"shortest":  query.SemanticsShortest,
	} {
		got, err := query.ParseSemantics(name)
		if err != nil || got != want {
			t.Errorf("ParseSemantics(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := query.ParseSemantics("pairs"); err == nil {
		t.Error("unknown semantics accepted")
	}
}

func evalFixture() *graph.Graph {
	g := graph.New(nil)
	g.AddEdgeByName("N1", "tram", "N4")
	g.AddEdgeByName("N2", "bus", "N1")
	g.AddEdgeByName("N4", "cinema", "C1")
	g.AddEdgeByName("N6", "cinema", "C2")
	g.AddEdgeByName("N6", "bus", "N5")
	g.AddEdgeByName("N5", "tram", "N3")
	return g
}

func TestEvaluateReqSemantics(t *testing.T) {
	g := evalFixture()
	q := query.MustParse(g.Alphabet(), "(tram+bus)*·cinema")
	snap := g.Snapshot()
	ctx := context.Background()
	name := func(v graph.NodeID) string { return snap.NodeName(v) }

	// nodes
	ans, _, err := q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsNodes})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 4 || len(ans.Nodes) != 4 {
		t.Fatalf("nodes: %+v", ans)
	}

	// pairsFrom
	n2, _ := g.NodeByName("N2")
	ans, _, err = q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsPairsFrom, From: n2, HasFrom: true})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 1 || name(ans.Nodes[0]) != "C1" {
		t.Fatalf("pairsFrom N2: %+v", ans)
	}
	if _, _, err := q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsPairsFrom}); err == nil {
		t.Fatal("pairsFrom without from accepted")
	}

	// witness: one path per selected node, words accepted
	ans, _, err = q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsWitness})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 4 || len(ans.Paths) != 4 {
		t.Fatalf("witness: %+v", ans)
	}
	for _, pw := range ans.Paths {
		if !q.Accepts(pw.Word) {
			t.Fatalf("witness word %v not accepted", pw.Word)
		}
	}
	if _, _, err := q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsWitness, From: n2, HasFrom: true}); err == nil {
		t.Fatal("witness with from accepted")
	}

	// witness limit truncates paths, not the count
	ans, _, err = q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsWitness, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 4 || len(ans.Paths) != 1 {
		t.Fatalf("witness limit: count %d, %d paths", ans.Count, len(ans.Paths))
	}

	// count: every selected node has at least one accepting length within
	// the default bound, and only nonzero rows are reported.
	ans, _, err = q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsCount})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count == 0 || len(ans.Counts) != ans.Count {
		t.Fatalf("count: %+v", ans)
	}

	// shortest with from: pair witnesses ending at the target
	ans, _, err = q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsShortest, From: n2, HasFrom: true})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 1 || len(ans.Paths) != 1 {
		t.Fatalf("shortest from N2: %+v", ans)
	}
	pw := ans.Paths[0]
	if pw.Nodes[0] != n2 || name(pw.Nodes[len(pw.Nodes)-1]) != "C1" || !q.Accepts(pw.Word) {
		t.Fatalf("shortest pair witness: %+v", pw)
	}
}

// randomEvalGraph builds a random graph over the given alphabet.
func randomEvalGraph(rng *rand.Rand, alpha *alphabet.Alphabet, nodes, edges int) *graph.Graph {
	g := graph.New(alpha)
	for v := 0; v < nodes; v++ {
		g.AddNode(fmt.Sprintf("n%d", v))
	}
	syms := alpha.Symbols()
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(nodes)), syms[rng.Intn(len(syms))], graph.NodeID(rng.Intn(nodes)))
	}
	return g
}

// TestWitnessShortestAcceptProperty is the cross-check the acceptance
// criteria name: on random graphs and queries, every path returned under
// witness and shortest semantics must re-verify under Query.Accepts, start
// (and for pairs, end) at the right node, and cover exactly the selected
// set.
func TestWitnessShortestAcceptProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	exprs := []string{
		"a·b", "(a+b)*·c", "a*", "b·(a+c)·a*", "(a·b)*·c", "c+a·b*",
	}
	ctx := context.Background()
	for iter := 0; iter < 40; iter++ {
		alpha := alphabet.NewSorted("a", "b", "c")
		nodes := 3 + rng.Intn(10)
		g := randomEvalGraph(rng, alpha, nodes, rng.Intn(4*nodes))
		q := query.MustParse(alpha, exprs[rng.Intn(len(exprs))])
		snap := g.Snapshot()

		ans, _, err := q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsWitness})
		if err != nil {
			t.Fatal(err)
		}
		sel := q.Evaluate(snap)
		if ans.Count != sel.Count() || len(ans.Paths) != sel.Count() {
			t.Fatalf("iter %d: witness count %d/%d paths, selection %d",
				iter, ans.Count, len(ans.Paths), sel.Count())
		}
		for i, pw := range ans.Paths {
			if pw.Nodes[0] != sel.Nodes()[i] {
				t.Fatalf("iter %d: witness %d starts at %d, want %d", iter, i, pw.Nodes[0], sel.Nodes()[i])
			}
			if !q.Accepts(pw.Word) {
				t.Fatalf("iter %d: witness word %v rejected by Accepts", iter, pw.Word)
			}
		}

		from := graph.NodeID(rng.Intn(nodes))
		ans, _, err = q.EvaluateReq(ctx, snap, query.Req{Semantics: query.SemanticsShortest, From: from, HasFrom: true})
		if err != nil {
			t.Fatal(err)
		}
		targets := q.SelectPairsFrom(snap, from)
		if ans.Count != len(targets) || len(ans.Paths) != len(targets) {
			t.Fatalf("iter %d: shortest count %d, targets %d", iter, ans.Count, len(targets))
		}
		for i, pw := range ans.Paths {
			if pw.Nodes[0] != from {
				t.Fatalf("iter %d: pair witness starts at %d, want %d", iter, pw.Nodes[0], from)
			}
			if last := pw.Nodes[len(pw.Nodes)-1]; !slices.Contains(targets, last) || last != targets[i] {
				t.Fatalf("iter %d: pair witness ends at %d, want %d", iter, last, targets[i])
			}
			if !q.Accepts(pw.Word) {
				t.Fatalf("iter %d: pair witness word %v rejected by Accepts", iter, pw.Word)
			}
		}
	}
}

func TestEvaluateReqCancellation(t *testing.T) {
	g := evalFixture()
	q := query.MustParse(g.Alphabet(), "(tram+bus)*·cinema")
	snap := g.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sem := range []query.Semantics{
		query.SemanticsNodes, query.SemanticsWitness, query.SemanticsCount, query.SemanticsShortest,
	} {
		if _, _, err := q.EvaluateReq(ctx, snap, query.Req{Semantics: sem}); err != context.Canceled {
			t.Errorf("%v: err = %v, want context.Canceled", sem, err)
		}
	}
}
