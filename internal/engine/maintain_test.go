package engine

// Tests for publish-time result-cache maintenance (maintain.go): a
// randomized mutate/query interleaving property — every answer the
// engine serves across retained and regrown entries must equal a
// from-scratch evaluation on the same snapshot — plus a concurrent
// stress mixing readers with mutating publishers, meant to run under
// -race (readers hit retained entries while the maintenance pass
// re-keys and regrows them).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// maintainQueries is the fixed workload over labels a–d. The label "x"
// exists in no query, so mutations on it are alphabet-disjoint from
// every plan and must retain cached entries.
var maintainQueries = []struct {
	src  string
	sem  query.Semantics
	from bool
}{
	{"a·b", query.SemanticsNodes, false},
	{"a*", query.SemanticsNodes, false},
	{"(a+b)·c*", query.SemanticsNodes, false},
	{"b·c·d", query.SemanticsNodes, false},
	{"a·b*·c", query.SemanticsPairsFrom, true},
	{"(c+d)*·a", query.SemanticsPairsFrom, true},
}

// seedMaintainGraph builds a small random graph over labels a–d (the
// alphabet pre-interns x so disjoint mutations share symbol indices with
// the reference queries) and returns it with its node count.
func seedMaintainGraph(rng *rand.Rand) (*graph.Graph, int) {
	g := graph.New(alphabet.NewSorted("a", "b", "c", "d", "x"))
	n := 8 + rng.Intn(8)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < 3*n; i++ {
		g.AddEdgeByName(
			fmt.Sprintf("n%d", rng.Intn(n)),
			labels[rng.Intn(len(labels))],
			fmt.Sprintf("n%d", rng.Intn(n)))
	}
	return g, n
}

func TestMaintainIncrementalMatchesFromScratch(t *testing.T) {
	alpha := alphabet.NewSorted("a", "b", "c", "d", "x")
	refs := make([]*query.Query, len(maintainQueries))
	for i, mq := range maintainQueries {
		refs[i] = query.MustParse(alpha, mq.src)
	}
	ctx := context.Background()

	const runs, steps = 10, 120 // 1200 interleaving steps total
	var retained, regrown uint64
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(int64(1000 + run)))
		g, n := seedMaintainGraph(rng)
		e := New(g, Options{})
		// A small budget on some runs exercises the budget-exceeded →
		// drop path without breaking correctness.
		if run%3 == 2 {
			e.regrowBudget = 8
		}

		for step := 0; step < steps; step++ {
			if rng.Intn(3) == 0 { // mutate: 1–3 edges, sometimes disjoint, sometimes a new node
				labels := []string{"a", "b", "c", "d", "x", "x"}
				var edges []EdgeSpec
				for i := 1 + rng.Intn(3); i > 0; i-- {
					to := rng.Intn(n + 1)
					if to == n {
						n++
					}
					edges = append(edges, EdgeSpec{
						From:  fmt.Sprintf("n%d", rng.Intn(n)),
						Label: labels[rng.Intn(len(labels))],
						To:    fmt.Sprintf("n%d", to),
					})
				}
				if _, err := e.Mutate(edges); err != nil {
					t.Fatal(err)
				}
				// Force the async maintainer to classify this publish so
				// the retain/regrow paths (not just cache misses) are what
				// the equality assertions below exercise.
				e.FlushMaintenance()
				continue
			}
			qi := rng.Intn(len(maintainQueries))
			mq := maintainQueries[qi]
			req := Request{Query: mq.src, Semantics: mq.sem.String()}
			if mq.from {
				req.From = fmt.Sprintf("n%d", rng.Intn(n))
			}
			got, err := e.Evaluate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			snap := e.Graph().Current()
			if got.Epoch != snap.Epoch() {
				t.Fatalf("run %d step %d: answer epoch %d, current %d", run, step, got.Epoch, snap.Epoch())
			}
			qreq := query.Req{Semantics: mq.sem}
			if mq.from {
				id, ok := e.Graph().NodeByName(req.From)
				if !ok {
					t.Fatalf("run %d step %d: anchor %q vanished", run, step, req.From)
				}
				qreq.From, qreq.HasFrom = id, true
			}
			want, err := refs[qi].EvaluateReq(ctx, snap, qreq)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count || len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("run %d step %d (%s %s): engine %d nodes, from-scratch %d",
					run, step, mq.src, mq.sem, len(got.Nodes), len(want.Nodes))
			}
			for i := range want.Nodes {
				if got.Nodes[i] != want.Nodes[i] {
					t.Fatalf("run %d step %d (%s %s): node[%d] = %d, from-scratch %d",
						run, step, mq.src, mq.sem, i, got.Nodes[i], want.Nodes[i])
				}
			}
		}
		st := e.Stats()
		retained += st.ResultRetained
		regrown += st.ResultRegrown
	}
	// The interleavings must actually exercise the incremental paths,
	// not fall through to drop-everything.
	if retained == 0 || regrown == 0 {
		t.Fatalf("maintenance outcomes never exercised: retained %d, regrown %d", retained, regrown)
	}
}

// TestMaintainConcurrentStress runs readers against mutating publishers:
// retained entries move between keys and regrown entries are inserted
// while lookups race them. Run with -race; answer correctness is the
// property test's job — here we assert error-freedom under contention
// and that the incremental outcomes actually fire.
func TestMaintainConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, n := seedMaintainGraph(rng)
	e := New(g, Options{})
	queries := []string{"a·b", "a*", "(a+b)·c*", "b·c·d"}
	for _, src := range queries {
		if _, err := evalNodes(e, src); err != nil {
			t.Fatal(err)
		}
	}

	const readers, mutators, iters = 4, 2, 400
	var wg sync.WaitGroup
	errs := make(chan error, readers+mutators)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if _, err := evalNodes(e, queries[rng.Intn(len(queries))]); err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	labels := []string{"a", "b", "x", "x"} // half the publishes are alphabet-disjoint
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters/4; i++ {
				_, err := e.Mutate([]EdgeSpec{{
					From:  fmt.Sprintf("n%d", rng.Intn(n)),
					Label: labels[rng.Intn(len(labels))],
					To:    fmt.Sprintf("n%d", rng.Intn(n)),
				}})
				if err != nil {
					errs <- err
					return
				}
				// Pace the writer to maintenance completion: without this
				// the (now-async) publishes coalesce into one terminal
				// classification pass and readers never race a re-key.
				e.FlushMaintenance()
			}
		}(int64(m))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.FlushMaintenance()
	st := e.Stats()
	if st.ResultRetained+st.ResultRegrown == 0 {
		t.Fatalf("stress run never retained or regrew: %+v", st)
	}
}
