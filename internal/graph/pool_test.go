package graph

// White-box checks of the scratch pool discipline: every search returns
// its pooled scratch clean, including the masked kernel's early exits,
// so the next search on the same graph is unaffected.

import (
	"context"
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/bitset"
	"pathquery/internal/plan"
)

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

// requireCleanThenNFA checks that the scratch the pool hands out next
// (on one goroutine, the one just released) has no bit or pending mask
// set, then checks SelectMonadicPlan on g's current snapshot against the
// AsNFA reference for every node.
func requireCleanThenNFA(t *testing.T, what string, g *Graph, d *automata.DFA, p *plan.Plan) {
	t.Helper()
	s := g.Snapshot()
	sc := s.getProduct(0)
	for _, words := range []bitset.Bits{sc.bits, sc.pending} {
		if n := words.Count(); n != 0 {
			t.Fatalf("%s: pooled scratch holds %d set bits", what, n)
		}
	}
	s.putProductClean(sc)
	sel := s.SelectMonadicPlan(p)
	for v := range sel {
		want := !automata.IntersectionEmpty(s.AsNFA([]NodeID{NodeID(v)}), d.NFA())
		if sel[v] != want {
			t.Fatalf("%s: SelectMonadicPlan[%d] = %v, NFA reference %v", what, v, sel[v], want)
		}
	}
}

// cancelAfterFirst is a context whose Err is nil on its first call and
// context.Canceled on every call after: an evaluation passes its entry
// check and is canceled at its first check mid-drain.
type cancelAfterFirst struct {
	context.Context
	calls int
}

func (c *cancelAfterFirst) Err() error {
	if c.calls++; c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestScratchPoolCleanliness runs interleaved product searches that share
// the pools and checks results stay independent — a dirty bitset or
// pending mask returned to the pool would corrupt a later search. Besides
// completed searches it covers the kernel's two early exits: a regrow
// that runs out of budget and a scratch evaluation canceled mid-drain.
func TestScratchPoolCleanliness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	alpha := alphabet.NewSorted("a", "b", "c")
	g := buildRandom(rng, alpha, 30, 90)
	d1 := automata.RandomNonEmptyDFA(rng, 4, alpha.Size(), 0.6)
	d2 := automata.RandomNonEmptyDFA(rng, 7, alpha.Size(), 0.4)
	snap, p1, p2 := g.Snapshot(), plan.FromDFA(d1), plan.FromDFA(d2)
	want1 := snap.SelectMonadicPlan(p1)
	want2 := snap.SelectMonadicPlan(p2)
	for round := 0; round < 20; round++ {
		snap.WitnessPathPlan(context.Background(), p2, NodeID(rng.Intn(30)))
		got1 := snap.SelectMonadicPlan(p1)
		snap.CoversPairPlan(p1, NodeID(rng.Intn(30)), NodeID(rng.Intn(30)))
		got2 := snap.SelectMonadicPlan(p2)
		for v := range want1 {
			if got1[v] != want1[v] || got2[v] != want2[v] {
				t.Fatalf("round %d: pooled scratch leaked state at node %d", round, v)
			}
		}
	}

	t.Run("regrow out of budget", func(t *testing.T) {
		g := buildRandom(rand.New(rand.NewSource(10)), alpha, 40, 60)
		exhausted := 0
		for round := 0; round < 20; round++ {
			d := automata.RandomNonEmptyDFA(rng, 2+rng.Intn(5), alpha.Size(), 0.6)
			p := plan.FromDFA(d)
			s1 := g.Snapshot()
			ctx := context.Background()
			_, monadic, err := s1.SelectMonadicMaskedState(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			rng.Intn(s1.NumNodes()) // unused draw, kept so later rounds see the same DFAs
			for i := 0; i < 4; i++ {
				g.AddEdge(NodeID(rng.Intn(40)), alphabet.Symbol(rng.Intn(alpha.Size())), NodeID(rng.Intn(40)))
			}
			s2 := g.Snapshot()
			span, ok := s2.DeltaSince(s1.Epoch())
			if !ok {
				t.Fatal("single-step span broke")
			}
			// The budget covers the seeds, so the drain itself gives up
			// with the seeded nodes' pending masks still queued.
			if _, _, ok := s2.RegrowMonadicMasked(p, monadic, &span, 4); !ok {
				exhausted++
			}
			requireCleanThenNFA(t, "after regrow", g, d, p)
		}
		if exhausted == 0 {
			t.Fatal("no regrow ran out of budget")
		}
	})

	t.Run("canceled mid-drain", func(t *testing.T) {
		canceled := 0
		for round := 0; round < 20; round++ {
			d := automata.RandomNonEmptyDFA(rng, 2+rng.Intn(5), alpha.Size(), 0.6)
			p := plan.FromDFA(d)
			ctx := &cancelAfterFirst{Context: context.Background()}
			if _, err := g.Snapshot().SelectMonadicPlanCtx(ctx, p); err != nil {
				canceled++
			}
			requireCleanThenNFA(t, "after cancel", g, d, p)
		}
		if canceled == 0 {
			t.Fatal("no evaluation was canceled mid-drain")
		}
	})
}
