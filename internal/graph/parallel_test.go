package graph

// White-box tests forcing SelectMonadicPlan through its parallel
// worker-shard paths (masked and generic) regardless of the host's CPU
// count, by raising GOMAXPROCS and dropping the engagement thresholds.

import (
	"math/rand"
	"runtime"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/plan"
)

func forceParallel(t *testing.T) {
	t.Helper()
	prevProcs := runtime.GOMAXPROCS(4)
	prevSpace, prevFrontier := selectParallelMinSpace, selectParallelMinFrontier
	selectParallelMinSpace, selectParallelMinFrontier = 1, 1
	t.Cleanup(func() {
		runtime.GOMAXPROCS(prevProcs)
		selectParallelMinSpace, selectParallelMinFrontier = prevSpace, prevFrontier
	})
}

func buildRandom(rng *rand.Rand, alpha *alphabet.Alphabet, nodes, edges int) *Graph {
	g := New(alpha)
	for i := 0; i < nodes; i++ {
		g.AddNode(string(rune('A'+i/26)) + string(rune('a'+i%26)))
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(NodeID(rng.Intn(nodes)), alphabet.Symbol(rng.Intn(alpha.Size())), NodeID(rng.Intn(nodes)))
	}
	return g
}

// coversSerial recomputes one node's verdict with the forward search,
// which has no parallel path — an independent in-package oracle.
func coversSerial(g *Graph, p *plan.Plan, v NodeID) bool {
	return g.reader().CoversPlan(&p.Forward, v)
}

func TestSelectMonadicParallelMasked(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(7))
	alpha := alphabet.NewSorted("a", "b", "c")
	for iter := 0; iter < 40; iter++ {
		nodes := 2 + rng.Intn(40)
		g := buildRandom(rng, alpha, nodes, rng.Intn(4*nodes))
		d := automata.RandomNonEmptyDFA(rng, 2+rng.Intn(6), alpha.Size(), 0.5)
		if d.NumStates() > 64 {
			t.Fatalf("iter %d: DFA unexpectedly large (%d states)", iter, d.NumStates())
		}
		p := plan.FromDFA(d)
		sel := g.reader().SelectMonadicPlan(p)
		for v := 0; v < nodes; v++ {
			if want := coversSerial(g, p, NodeID(v)); sel[v] != want {
				t.Fatalf("iter %d: parallel masked SelectMonadicPlan[%d] = %v, CoversPlan = %v",
					iter, v, sel[v], want)
			}
		}
	}
}

func TestSelectMonadicParallelGeneric(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(8))
	alpha := alphabet.NewSorted("a", "b")
	for iter := 0; iter < 10; iter++ {
		nodes := 2 + rng.Intn(20)
		g := buildRandom(rng, alpha, nodes, rng.Intn(3*nodes))
		// Pad a random DFA beyond 64 states with unreachable junk so the
		// generic (non-masked) product path runs.
		d := automata.RandomNonEmptyDFA(rng, 5, alpha.Size(), 0.5)
		for d.NumStates() <= 64 {
			d.AddState()
		}
		p := plan.FromDFA(d)
		sel := g.reader().SelectMonadicPlan(p)
		for v := 0; v < nodes; v++ {
			if want := coversSerial(g, p, NodeID(v)); sel[v] != want {
				t.Fatalf("iter %d: parallel generic SelectMonadicPlan[%d] = %v, CoversPlan = %v",
					iter, v, sel[v], want)
			}
		}
	}
}

// TestScratchPoolCleanliness runs interleaved product searches that share
// the pools and checks results stay independent — a dirty bitset returned
// to the pool would corrupt a later search.
func TestScratchPoolCleanliness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	alpha := alphabet.NewSorted("a", "b", "c")
	g := buildRandom(rng, alpha, 30, 90)
	d1 := automata.RandomNonEmptyDFA(rng, 4, alpha.Size(), 0.6)
	d2 := automata.RandomNonEmptyDFA(rng, 7, alpha.Size(), 0.4)
	snap, p1, p2 := g.reader(), plan.FromDFA(d1), plan.FromDFA(d2)
	want1 := snap.SelectMonadicPlan(p1)
	want2 := snap.SelectMonadicPlan(p2)
	for round := 0; round < 20; round++ {
		snap.CoversAnyPlan(&p2.Forward, []NodeID{NodeID(rng.Intn(30))})
		got1 := snap.SelectMonadicPlan(p1)
		snap.CoversPairPlan(p1, NodeID(rng.Intn(30)), NodeID(rng.Intn(30)))
		got2 := snap.SelectMonadicPlan(p2)
		for v := range want1 {
			if got1[v] != want1[v] || got2[v] != want2[v] {
				t.Fatalf("round %d: pooled scratch leaked state at node %d", round, v)
			}
		}
	}
}
