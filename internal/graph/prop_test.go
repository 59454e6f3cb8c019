package graph_test

// Property tests for the CSR/bitset product engine: every product search
// is cross-checked against an AsNFA-based reference — the graph's path
// language materialized as an explicit NFA and combined with the query
// DFA through the automata package — on random graphs and random query
// DFAs.

import (
	"context"
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/plan"
	"pathquery/internal/scp"
	"pathquery/internal/words"
)

// refCovers is the AsNFA-based reference for monadic coverage:
// L(d) ∩ paths_G(set) ≠ ∅ iff the NFA intersection is non-empty.
func refCovers(g *graph.Graph, d *automata.DFA, set []graph.NodeID) bool {
	if len(set) == 0 {
		return false
	}
	return !automata.IntersectionEmpty(g.Snapshot().AsNFA(set), d.NFA())
}

// refCoversPair is the binary-semantics reference: the graph NFA keeps
// only the destination final, so its language is exactly paths2_G(u, v).
func refCoversPair(g *graph.Graph, d *automata.DFA, u, v graph.NodeID) bool {
	n := g.Snapshot().AsNFA([]graph.NodeID{u})
	for i := range n.Final {
		n.Final[i] = int32(i) == v
	}
	return !automata.IntersectionEmpty(n, d.NFA())
}

func randomDFA(rng *rand.Rand, numSyms int) *automata.DFA {
	return automata.RandomNonEmptyDFA(rng, 2+rng.Intn(5), numSyms, 0.3+0.5*rng.Float64())
}

func TestSelectMonadicMatchesNFAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	alpha := alphabet.NewSorted("a", "b", "c")
	for iter := 0; iter < 80; iter++ {
		nodes := 2 + rng.Intn(10)
		g := randomGraph(rng, alpha, nodes, rng.Intn(3*nodes))
		d := randomDFA(rng, alpha.Size())
		sel := g.Snapshot().SelectMonadicPlan(plan.FromDFA(d))
		for v := 0; v < nodes; v++ {
			want := refCovers(g, d, []graph.NodeID{graph.NodeID(v)})
			if sel[v] != want {
				t.Fatalf("iter %d: SelectMonadicPlan[%d] = %v, NFA reference = %v",
					iter, v, sel[v], want)
			}
		}
	}
}

func TestCoversAnyMatchesNFAReference(t *testing.T) {
	// A plan covers a node set iff its witness search (the one behind
	// query.Query.Selects) succeeds at some node of the set; checked
	// against the NFA reference run from the whole set at once.
	rng := rand.New(rand.NewSource(102))
	alpha := alphabet.NewSorted("a", "b", "c")
	ctx := context.Background()
	for iter := 0; iter < 80; iter++ {
		nodes := 2 + rng.Intn(10)
		g := randomGraph(rng, alpha, nodes, rng.Intn(3*nodes))
		d := randomDFA(rng, alpha.Size())
		var set []graph.NodeID
		for v := 0; v < nodes; v++ {
			if rng.Intn(3) == 0 {
				set = append(set, graph.NodeID(v))
			}
		}
		snap, p := g.Snapshot(), plan.FromDFA(d)
		got := false
		for _, v := range set {
			_, ok, err := snap.WitnessPathPlan(ctx, p, v)
			if err != nil {
				t.Fatal(err)
			}
			got = got || ok
		}
		if want := refCovers(g, d, set); got != want {
			t.Fatalf("iter %d: witness search covers %v = %v, NFA reference = %v", iter, set, got, want)
		}
	}
}

func TestCoversPairMatchesNFAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	alpha := alphabet.NewSorted("a", "b", "c")
	for iter := 0; iter < 60; iter++ {
		nodes := 2 + rng.Intn(8)
		g := randomGraph(rng, alpha, nodes, rng.Intn(3*nodes))
		d := randomDFA(rng, alpha.Size())
		snap, p := g.Snapshot(), plan.FromDFA(d)
		u := graph.NodeID(rng.Intn(nodes))
		v := graph.NodeID(rng.Intn(nodes))
		if got, want := snap.CoversPairPlan(p, u, v), refCoversPair(g, d, u, v); got != want {
			t.Fatalf("iter %d: CoversPairPlan(%d,%d) = %v, NFA reference = %v", iter, u, v, got, want)
		}
		// SelectBinaryFromPlan must agree with CoversPairPlan pointwise.
		sel := snap.SelectBinaryFromPlan(p, u)
		hit := make(map[graph.NodeID]bool, len(sel))
		for i, x := range sel {
			hit[x] = true
			if i > 0 && sel[i-1] >= x {
				t.Fatalf("iter %d: SelectBinaryFromPlan not strictly increasing: %v", iter, sel)
			}
		}
		for x := 0; x < nodes; x++ {
			if hit[graph.NodeID(x)] != refCoversPair(g, d, u, graph.NodeID(x)) {
				t.Fatalf("iter %d: SelectBinaryFromPlan disagrees with reference at %d", iter, x)
			}
		}
	}
}

// TestFirstEscapingPathMatchesNFAReference checks the unbounded SCP
// search (scp.Coverage.Smallest with k < 0), which answers path-language
// inclusion, on random graphs with one or two right nodes: it finds no
// word exactly when paths(left) ⊆ paths(right) on the materialized NFAs
// (automata.Included), and a word it finds must escape and be the
// canonical-order minimum among all escaping words, verified by brute
// force enumeration up to the witness length.
func TestFirstEscapingPathMatchesNFAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	alpha := alphabet.NewSorted("a", "b")
	var seen [2]int // inclusions, escapes
	for iter := 0; iter < 120; iter++ {
		nodes := 2 + rng.Intn(7)
		g := randomGraph(rng, alpha, nodes, rng.Intn(2*nodes))
		snap := g.Snapshot()
		left := []graph.NodeID{graph.NodeID(rng.Intn(nodes))}
		right := []graph.NodeID{graph.NodeID(rng.Intn(nodes))}
		if iter%2 == 1 {
			right = append(right, graph.NodeID(rng.Intn(nodes)))
		}
		w, ok, cut := scp.NewCoverage(snap, right).Smallest(left[0], -1)
		if cut {
			t.Fatalf("iter %d: an unbounded search reported a cut", iter)
		}
		wantIncluded := automata.Included(
			automata.Minimize(automata.Determinize(snap.AsNFA(left))),
			automata.Minimize(automata.Determinize(snap.AsNFA(right))))
		if ok == wantIncluded {
			t.Fatalf("iter %d: escaping path found = %v, automata inclusion = %v",
				iter, ok, wantIncluded)
		}
		if !ok {
			seen[0]++
			continue
		}
		seen[1]++
		if !snap.MatchesAny(left, w) {
			t.Fatalf("iter %d: witness %v not in paths(left)", iter, w)
		}
		if snap.MatchesAny(right, w) {
			t.Fatalf("iter %d: witness %v covered by right side", iter, w)
		}
		// Canonical minimality: no strictly smaller word escapes.
		for _, u := range words.UpTo(alpha.Symbols(), w) {
			if words.Compare(u, w) >= 0 {
				break
			}
			if snap.MatchesAny(left, u) && !snap.MatchesAny(right, u) {
				t.Fatalf("iter %d: %v escapes but is smaller than witness %v", iter, u, w)
			}
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("inclusions %d, escapes %d: both verdicts must occur", seen[0], seen[1])
	}
}

// TestStepMatchesReference checks the CSR Step against a naive
// per-edge-scan reference on random graphs, including duplicate edges.
func TestStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	alpha := alphabet.NewSorted("a", "b", "c", "d")
	for iter := 0; iter < 60; iter++ {
		nodes := 1 + rng.Intn(12)
		g := randomGraph(rng, alpha, nodes, rng.Intn(4*nodes))
		var set []graph.NodeID
		for v := 0; v < nodes; v++ {
			if rng.Intn(2) == 0 {
				set = append(set, graph.NodeID(v))
			}
		}
		for s := 0; s < alpha.Size(); s++ {
			sym := alphabet.Symbol(s)
			want := map[graph.NodeID]bool{}
			for _, v := range set {
				for _, e := range g.Snapshot().OutEdges(v) {
					if e.Sym == sym {
						want[e.To] = true
					}
				}
			}
			got := g.Snapshot().Step(set, sym)
			if len(got) != len(want) {
				t.Fatalf("iter %d sym %d: Step returned %d nodes, want %d", iter, s, len(got), len(want))
			}
			for i, v := range got {
				if !want[v] {
					t.Fatalf("iter %d sym %d: unexpected successor %d", iter, s, v)
				}
				if i > 0 && got[i-1] >= v {
					t.Fatalf("iter %d sym %d: Step output not sorted: %v", iter, s, got)
				}
			}
		}
	}
}

// TestStepAllMatchesStep checks the bulk transition primitive against
// per-symbol Step.
func TestStepAllMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	alpha := alphabet.NewSorted("a", "b", "c")
	for iter := 0; iter < 60; iter++ {
		nodes := 1 + rng.Intn(12)
		g := randomGraph(rng, alpha, nodes, rng.Intn(4*nodes))
		var set []graph.NodeID
		for v := 0; v < nodes; v++ {
			if rng.Intn(2) == 0 {
				set = append(set, graph.NodeID(v))
			}
		}
		got := map[alphabet.Symbol][]graph.NodeID{}
		g.Snapshot().StepAll(set, func(sym alphabet.Symbol, succ []graph.NodeID) {
			if len(succ) == 0 {
				t.Fatalf("iter %d: StepAll visited symbol %d with empty successors", iter, sym)
			}
			if _, dup := got[sym]; dup {
				t.Fatalf("iter %d: StepAll visited symbol %d twice", iter, sym)
			}
			got[sym] = succ
		})
		for s := 0; s < alpha.Size(); s++ {
			sym := alphabet.Symbol(s)
			want := g.Snapshot().Step(set, sym)
			have := got[sym]
			if len(want) != len(have) {
				t.Fatalf("iter %d sym %d: StepAll %v, Step %v", iter, s, have, want)
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("iter %d sym %d: StepAll %v, Step %v", iter, s, have, want)
				}
			}
		}
	}
}

// TestMutateAfterFreeze checks the rebuild contract: reads after mutation
// observe the new edges.
func TestMutateAfterFreeze(t *testing.T) {
	alpha := alphabet.NewSorted("a", "b")
	g := graph.New(alpha)
	x := g.AddNode("x")
	y := g.AddNode("y")
	a, _ := alpha.Lookup("a")
	g.AddEdge(x, a, y)
	if got := g.Snapshot().Step([]graph.NodeID{x}, a); len(got) != 1 || got[0] != y {
		t.Fatalf("Step before mutation = %v", got)
	}
	z := g.AddNode("z")
	g.AddEdge(x, a, z)
	got := g.Snapshot().Step([]graph.NodeID{x}, a)
	if len(got) != 2 || got[0] != y || got[1] != z {
		t.Fatalf("Step after mutation = %v, want [y z]", got)
	}
}
