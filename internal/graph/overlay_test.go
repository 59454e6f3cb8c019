package graph

// White-box property test for incremental CSR publishing (overlay.go):
// across randomized mutation sequences — spanning several overlay
// compactions — every read surface of the published adjacency (row,
// succ, Step, SelectMonadicPlan and the masked fixpoints) must be
// bit-identical to a from-scratch buildCSR of the same edge multiset.
// Edge values are pure (Sym, To) data, so "bit-identical" is plain struct
// equality over whole rows.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/plan"
)

// requireAdjEqual asserts a and ref expose identical rows and successor
// slices for every node.
func requireAdjEqual(t *testing.T, what string, a, ref *adj, nv, nsym int) {
	t.Helper()
	for v := 0; v < nv; v++ {
		got, want := a.row(NodeID(v)), ref.row(NodeID(v))
		if len(got) != len(want) {
			t.Fatalf("%s: node %d row length %d, from-scratch %d", what, v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d edge %d = %+v, from-scratch %+v", what, v, i, got[i], want[i])
			}
		}
		for sym := 0; sym < nsym; sym++ {
			gs, ws := a.succ(NodeID(v), alphabet.Symbol(sym)), ref.succ(NodeID(v), alphabet.Symbol(sym))
			if len(gs) != len(ws) {
				t.Fatalf("%s: succ(%d, %d) length %d, from-scratch %d", what, v, sym, len(gs), len(ws))
			}
			for i := range ws {
				if gs[i] != ws[i] {
					t.Fatalf("%s: succ(%d, %d)[%d] = %+v, from-scratch %+v", what, v, sym, i, gs[i], ws[i])
				}
			}
		}
	}
}

// requireMasksEqual asserts two per-node state-mask fixpoints are equal.
func requireMasksEqual(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d masks, from-scratch %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: mask[%d] = %b, from-scratch %b", what, v, got[v], want[v])
		}
	}
}

func TestOverlayPublishMatchesFromScratch(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	ctx := context.Background()
	const runs, steps = 6, 120
	var incremental, compacted int
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(int64(4200 + run)))
		g := New(alphabet.NewSorted(labels...))
		n := 4 + rng.Intn(6)
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("v%d", i))
		}
		d := automata.RandomNonEmptyDFA(rng, 2+rng.Intn(4), len(labels), 0.3+0.5*rng.Float64())
		plans := []*plan.Plan{plan.FromDFA(d), plan.Compile(d)}

		for step := 0; step < steps; step++ {
			// 1–8 edges per publish, occasionally a new node, occasional
			// duplicate edges (the multiset must survive the merges).
			for k := 1 + rng.Intn(8); k > 0; k-- {
				to := rng.Intn(n + 1)
				if to == n {
					n++
				}
				g.AddEdgeByName(
					fmt.Sprintf("v%d", rng.Intn(n)),
					labels[rng.Intn(len(labels))],
					fmt.Sprintf("v%d", to))
			}
			s, st := g.SnapshotStats()
			if st.Incremental {
				incremental++
			}
			if st.Compacted {
				compacted++
			}

			refOut := fullCSR(g.out)
			refIn := fullCSR(g.in)
			requireAdjEqual(t, fmt.Sprintf("run %d step %d out", run, step), &s.out, &refOut, s.nv, len(labels))
			requireAdjEqual(t, fmt.Sprintf("run %d step %d in", run, step), &s.in, &refIn, s.nv, len(labels))

			// Step and the plan evaluators read through the same segment
			// dispatch; cross-check them against a from-scratch graph
			// publishing its very first epoch (the buildCSR-only path).
			if step%10 == 0 {
				g2 := New(alphabet.NewSorted(labels...))
				for i := 0; i < n; i++ {
					g2.AddNode(fmt.Sprintf("v%d", i))
				}
				for v := 0; v < s.nv; v++ {
					for _, e := range refOut.row(NodeID(v)) {
						g2.AddEdge(NodeID(v), alphabet.Symbol(e.Sym), e.To)
					}
				}
				s2 := g2.Snapshot()
				set := []NodeID{NodeID(rng.Intn(n))}
				sym := alphabet.Symbol(rng.Intn(len(labels)))
				got, want := s.Step(set, sym), s2.Step(set, sym)
				if len(got) != len(want) {
					t.Fatalf("run %d step %d: Step length %d, from-scratch %d", run, step, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("run %d step %d: Step[%d] = %d, from-scratch %d", run, step, i, got[i], want[i])
					}
				}
				u := NodeID(rng.Intn(n))
				for pi, p := range plans {
					gs, ws := s.SelectMonadicPlan(p), s2.SelectMonadicPlan(p)
					for v := range ws {
						if gs[v] != ws[v] {
							t.Fatalf("run %d step %d plan %d: SelectMonadicPlan[%d] = %v, from-scratch %v",
								run, step, pi, v, gs[v], ws[v])
						}
					}
					// The masked fixpoints, bit for bit: the monadic one is
					// seeded by the sweep over the overlay's segment runs.
					what := fmt.Sprintf("run %d step %d plan %d", run, step, pi)
					_, gm, err := s.SelectMonadicMaskedState(ctx, p)
					if err != nil {
						t.Fatal(err)
					}
					_, wm, err := s2.SelectMonadicMaskedState(ctx, p)
					if err != nil {
						t.Fatal(err)
					}
					requireMasksEqual(t, what+" monadic", gm, wm)
					if gb, wb := s.SelectBinaryFromPlan(p, u), s2.SelectBinaryFromPlan(p, u); !slices.Equal(gb, wb) {
						t.Fatalf("%s: SelectBinaryFromPlan(%d) = %v, from-scratch %v", what, u, gb, wb)
					}
				}
			}
		}
	}
	if incremental == 0 || compacted < 2 {
		t.Fatalf("publish paths under-exercised: %d incremental, %d compactions", incremental, compacted)
	}
}
