package graph_test

import (
	"context"
	"sync"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/plan"
	"pathquery/internal/regex"
)

// TestConcurrentReadsAfterBuild exercises the documented concurrency
// contract: once construction is done, goroutines may read concurrently —
// including the very first read, which triggers the lazy adjacency sort.
// Run with -race to make this meaningful.
func TestConcurrentReadsAfterBuild(t *testing.T) {
	alpha := alphabet.NewSorted("a", "b", "c")
	g := graph.New(alpha)
	const n = 200
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i % 100))
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(graph.NodeID(i%100), alphabet.Symbol(i%3), graph.NodeID((i*7)%100))
	}
	p := plan.FromDFA(automata.CompileRegex(regex.MustParse(alpha, "a·b*·c"), alpha.Size()))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w; v < 100; v += 8 {
				g.Snapshot().OutEdges(graph.NodeID(v))
				g.Snapshot().InEdges(graph.NodeID(v))
				g.Snapshot().WitnessPathPlan(context.Background(), p, graph.NodeID(v))
				g.Snapshot().PathsUpTo(graph.NodeID(v), 3, 10)
			}
		}(w)
	}
	wg.Wait()

	// Reads from all workers must agree with a fresh sequential pass.
	snap := g.Snapshot()
	sel := snap.SelectMonadicPlan(p)
	for v := 0; v < 100; v++ {
		if _, got, _ := snap.WitnessPathPlan(context.Background(), p, graph.NodeID(v)); got != sel[v] {
			t.Fatalf("node %d: concurrent warm-up corrupted state", v)
		}
	}
}
