package sampling_test

import (
	"testing"

	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
	"pathquery/internal/sampling"
)

func testGraph() *graph.Graph {
	return datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 1000, Edges: 3000, Labels: 8, ZipfS: 1, Seed: 71,
	})
}

func TestRandomWalkSampleSize(t *testing.T) {
	g := testGraph()
	s := sampling.RandomWalk(g.Snapshot(), sampling.Config{TargetNodes: 200, Seed: 1})
	if len(s) == 0 || len(s) > 220 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := make(map[graph.NodeID]bool)
	for i, v := range s {
		if seen[v] {
			t.Fatal("duplicate node in sample")
		}
		seen[v] = true
		if i > 0 && s[i-1] >= v {
			t.Fatal("sample not sorted")
		}
	}
}

func TestForestFireSampleSize(t *testing.T) {
	g := testGraph()
	s := sampling.ForestFire(g.Snapshot(), sampling.Config{TargetNodes: 200, Seed: 2})
	if len(s) < 150 || len(s) > 220 {
		t.Fatalf("sample size %d", len(s))
	}
}

func TestSamplersCoverWholeTinyGraph(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	for _, s := range [][]graph.NodeID{
		sampling.RandomWalk(snap, sampling.Config{TargetNodes: 100, Seed: 3}),
		sampling.ForestFire(snap, sampling.Config{TargetNodes: 100, Seed: 3}),
	} {
		if len(s) != g.NumNodes() {
			t.Fatalf("tiny graph not fully sampled: %d of %d", len(s), g.NumNodes())
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	g := testGraph()
	snap := g.Snapshot()
	a := sampling.RandomWalk(snap, sampling.Config{TargetNodes: 150, Seed: 5})
	b := sampling.RandomWalk(snap, sampling.Config{TargetNodes: 150, Seed: 5})
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

// TestForestFireDeterministic is the regression test for the re-seeding
// bug: a random seed landing on an already-visited node used to be
// re-enqueued and re-burned, skewing the geometric burn schedule. The fix
// skips visited seeds, so a fixed seed must reproduce the exact sample and
// exact target size, through the snapshot path and the Graph delegate
// alike.
func TestForestFireDeterministic(t *testing.T) {
	g := testGraph()
	snap := g.Snapshot()
	// Small burn probability makes the fire die often, exercising the
	// reseed path heavily.
	cfg := sampling.Config{TargetNodes: 300, Seed: 41, BurnForward: 0.2}
	a := sampling.ForestFire(snap, cfg)
	b := sampling.ForestFire(snap, cfg)
	if len(a) != cfg.TargetNodes {
		t.Fatalf("sample size %d, want exactly %d", len(a), cfg.TargetNodes)
	}
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different forest-fire samples")
		}
	}
	seen := make(map[graph.NodeID]bool)
	for i, v := range a {
		if seen[v] {
			t.Fatal("duplicate node in sample")
		}
		seen[v] = true
		if i > 0 && a[i-1] >= v {
			t.Fatal("sample not sorted")
		}
	}
}

func TestRestrictProposesFromSample(t *testing.T) {
	g := testGraph()
	snap := g.Snapshot()
	sample := sampling.RandomWalk(snap, sampling.Config{TargetNodes: 100, Seed: 7})
	inSample := make(map[graph.NodeID]bool)
	for _, v := range sample {
		inSample[v] = true
	}
	goal := query.MustParse(g.Alphabet(), "l00·l01")
	sess := sampling.Session(snap, "rw", sampling.Config{TargetNodes: 100, Seed: 7},
		interactive.Options{Strategy: interactive.KR{}, Seed: 9, MaxInteractions: 30})
	res, err := sess.Run(interactive.NewQueryOracle(snap, goal),
		func(q *query.Query) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	// All early proposals come from the sample (fallback to the full graph
	// only once the sample is exhausted, which 30 labels cannot do here
	// if the sample retains informative nodes — verify at least the first).
	if len(res.Interactions) == 0 {
		t.Fatal("no interactions")
	}
	if !inSample[res.Interactions[0].Node] {
		t.Fatal("first proposal left the sample")
	}
}

func TestSampledSessionStillLearns(t *testing.T) {
	// The sampled session must still converge on a small graph (fallback
	// guarantees completeness).
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "(a·b)*·c")
	sess := sampling.Session(snap, "ff", sampling.Config{TargetNodes: 3, Seed: 11},
		interactive.Options{Strategy: interactive.KS{}, Seed: 13})
	res, err := sess.Run(interactive.NewQueryOracle(snap, goal), interactive.ExactMatch(snap, goal))
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted != interactive.HaltSatisfied {
		t.Fatalf("halted %v", res.Halted)
	}
	if !res.Query.EquivalentOn(snap, goal) {
		t.Fatalf("learned %v", res.Query)
	}
}

func TestRestrictName(t *testing.T) {
	r := sampling.Restrict{Base: interactive.KS{}}
	if r.Name() != "sampled(kS)" {
		t.Fatalf("name = %q", r.Name())
	}
}

func TestCoverageOfSample(t *testing.T) {
	g := testGraph()
	snap := g.Snapshot()
	goal := query.MustParse(g.Alphabet(), "l00")
	sel := goal.Evaluate(snap).Vector()
	full := sampling.CoverageOfSample(g.Nodes(), sel)
	if full != 1 {
		t.Fatalf("full sample coverage = %v", full)
	}
	empty := sampling.CoverageOfSample(nil, sel)
	if empty != 0 {
		t.Fatalf("empty sample coverage = %v", empty)
	}
	// A decent random-walk sample of half the graph should cover a
	// nontrivial share of the selected nodes.
	half := sampling.RandomWalk(snap, sampling.Config{TargetNodes: 500, Seed: 17})
	c := sampling.CoverageOfSample(half, sel)
	if c <= 0.1 {
		t.Fatalf("half sample coverage suspiciously low: %v", c)
	}
}
