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

// Tests for the epoch-snapshot lifecycle: mutations go to the build side,
// Snapshot() publishes immutable CSR epochs, Current() serves the latest
// published epoch without blocking on pending mutations.

func TestEpochLifecycle(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("A", "x", "B")
	if g.Epoch() != 0 {
		t.Fatalf("epoch before first publication = %d, want 0", g.Epoch())
	}
	s1 := g.Snapshot()
	if s1.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", s1.Epoch())
	}
	if g.Snapshot() != s1 {
		t.Error("Snapshot with no pending mutations republished")
	}
	if g.Current() != s1 {
		t.Error("Current disagrees with the published snapshot")
	}

	g.AddEdgeByName("B", "x", "C")
	// Pending mutation: Current still serves epoch 1, Snapshot publishes 2.
	if cur := g.Current(); cur != s1 {
		t.Errorf("Current republished on dirty build side (epoch %d)", cur.Epoch())
	}
	s2 := g.Snapshot()
	if s2.Epoch() != 2 {
		t.Fatalf("second epoch = %d, want 2", s2.Epoch())
	}
	if s1.NumNodes() != 2 || s2.NumNodes() != 3 {
		t.Fatalf("node counts: epoch1 %d (want 2), epoch2 %d (want 3)",
			s1.NumNodes(), s2.NumNodes())
	}
	if s1.NumEdges() != 1 || s2.NumEdges() != 2 {
		t.Fatalf("edge counts: epoch1 %d (want 1), epoch2 %d (want 2)",
			s1.NumEdges(), s2.NumEdges())
	}
}

func TestSnapshotImmutableUnderMutation(t *testing.T) {
	alpha := alphabet.NewSorted("x", "y")
	g := graph.New(alpha)
	g.AddEdgeByName("A", "x", "B")
	s1 := g.Snapshot()
	p := plan.FromDFA(automata.CompileRegex(regex.MustParse(alpha, "x·y"), alpha.Size()))

	before := s1.SelectMonadicPlan(p)
	g.AddEdgeByName("B", "y", "C")
	s2 := g.Snapshot()

	after := s1.SelectMonadicPlan(p)
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("node %d: pinned epoch changed under mutation", v)
		}
	}
	a, _ := g.NodeByName("A")
	if after[a] {
		t.Error("epoch 1 sees the x·y path that only exists in epoch 2")
	}
	if sel := s2.SelectMonadicPlan(p); !sel[a] {
		t.Error("epoch 2 misses the published x·y path")
	}
}

// TestConcurrentReadersDuringMutation is the serving contract under -race:
// one writer mutates and publishes epochs while readers pin snapshots via
// Current() and run product searches — without ever blocking the writer.
func TestConcurrentReadersDuringMutation(t *testing.T) {
	alpha := alphabet.NewSorted("a", "b", "c")
	g := graph.New(alpha)
	const base = 50
	for i := 0; i < base; i++ {
		g.AddEdge(g.AddNode(nodeName(i)), alphabet.Symbol(i%3), g.AddNode(nodeName((i+1)%base)))
	}
	g.Snapshot()
	p := plan.FromDFA(automata.CompileRegex(regex.MustParse(alpha, "a·b*·c"), alpha.Size()))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // single writer
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 60; i++ {
			from := g.AddNode(nodeName(base + i))
			to := g.AddNode(nodeName(i % base))
			g.AddEdge(from, alphabet.Symbol(i%3), to)
			s := g.Snapshot()
			if want := uint64(i + 2); s.Epoch() != want {
				t.Errorf("writer: epoch %d, want %d", s.Epoch(), want)
				return
			}
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				s := g.Current()
				sel := s.SelectMonadicPlan(p)
				if len(sel) != s.NumNodes() {
					t.Errorf("reader %d: |sel| %d != epoch nodes %d", w, len(sel), s.NumNodes())
					return
				}
				// Name resolution against the pinned epoch must be in range.
				_ = s.NodeName(graph.NodeID(s.NumNodes() - 1))
				s.WitnessPathPlan(context.Background(), p, graph.NodeID(w))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	wg.Wait()

	if got := g.Snapshot().Epoch(); got != 61 {
		t.Fatalf("final epoch %d, want 61", got)
	}
}
