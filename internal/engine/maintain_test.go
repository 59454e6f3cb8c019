package engine

// Tests for read-time result-cache revalidation (maintain.go): a
// randomized mutate/query interleaving property — every answer the
// engine serves across retained and regrown entries must equal a
// from-scratch evaluation on the same snapshot, including after bursts
// of publishes longer than the delta chain reaches — plus a concurrent
// stress mixing readers with mutating publishers, meant to run under
// -race (readers retain and regrow entries while others read them), and
// the revalidation edge cases: many disjoint publishes, the first read
// after one, and a reader pinned below an entry's epochs.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	var retained, regrown, bursts uint64
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(int64(1000 + run)))
		g, n := seedMaintainGraph(rng)
		e := New(g, Options{})
		// A small budget on some runs exercises the budget-exceeded →
		// drop path without breaking correctness.
		if run%3 == 2 {
			e.regrowBudget = 8
		}

		// mutate publishes 1–3 edges over labels, sometimes adding a node.
		mutate := func(labels []string) {
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
		}
		for step := 0; step < steps; step++ {
			if rng.Intn(40) == 0 {
				// A burst of 65–100 publishes between two reads outruns
				// the 64-link delta chain: disjoint-only bursts must
				// still retain, mixed ones regrow where the chain
				// reaches and recompute past it.
				labels := []string{"a", "b", "c", "d", "x", "x"}
				if rng.Intn(2) == 0 {
					labels = []string{"x"}
				}
				for i := 65 + rng.Intn(36); i > 0; i-- {
					mutate(labels)
				}
				bursts++
				continue
			}
			if rng.Intn(3) == 0 { // mutate: sometimes disjoint, sometimes a new node
				mutate([]string{"a", "b", "c", "d", "x", "x"})
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
			want, _, err := refs[qi].EvaluateReq(ctx, snap, qreq)
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
	if retained == 0 || regrown == 0 || bursts == 0 {
		t.Fatalf("revalidation outcomes never exercised: retained %d, regrown %d, bursts %d", retained, regrown, bursts)
	}
}

// TestMaintainConcurrentStress runs readers against mutating publishers:
// readers advance retained entries' validity and replace stale entries
// with regrown ones while other lookups race them, and resolve anchors
// by name while the publishers add the nodes they name. Run with -race;
// answer correctness is the property test's job — here we assert
// error-freedom under contention and that the incremental outcomes
// actually fire.
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
	var rwg, mwg sync.WaitGroup
	errs := make(chan error, readers+mutators)
	// Entries are revalidated only when read, so readers keep reading
	// until the last publish, and each publisher waits for a few reads
	// after each of its publishes: otherwise the scheduler may run more
	// publishes between two reads than the delta chain reaches, and the
	// readers race only scratch recomputes.
	published := make(chan struct{})
	var reads atomic.Int64
	readerFailed := make(chan struct{})
	var failOnce sync.Once
	fail := func(err error) {
		errs <- err
		failOnce.Do(func() { close(readerFailed) })
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				if i >= iters {
					select {
					case <-published:
						return
					default:
					}
				}
				if i%4 == 0 {
					// Half the anchors name nodes a publisher may be adding.
					_, err := e.Evaluate(context.Background(), Request{
						Query: "a·b*·c", Semantics: "pairsFrom", From: fmt.Sprintf("n%d", rng.Intn(2*n)),
					})
					var ae *APIError
					if err != nil && !(errors.As(err, &ae) && ae.Code == "unknown_node") {
						fail(err)
						return
					}
				} else if _, err := evalNodes(e, queries[rng.Intn(len(queries))]); err != nil {
					fail(err)
					return
				}
				reads.Add(1)
			}
		}(int64(r))
	}
	labels := []string{"a", "b", "x", "x"} // half the publishes are alphabet-disjoint
	for m := 0; m < mutators; m++ {
		mwg.Add(1)
		go func(seed int64) {
			defer mwg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters/4; i++ {
				_, err := e.Mutate([]EdgeSpec{{
					From:  fmt.Sprintf("n%d", rng.Intn(n)),
					Label: labels[rng.Intn(len(labels))],
					To:    fmt.Sprintf("n%d", rng.Intn(2*n)),
				}})
				if err != nil {
					errs <- err
					return
				}
				for target := reads.Load() + readers; reads.Load() < target; {
					select {
					case <-readerFailed:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}(int64(m))
	}
	mwg.Wait()
	close(published)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ResultRetained+st.ResultRegrown == 0 {
		t.Fatalf("stress run never retained or regrew: %+v", st)
	}
}

// TestRetainAcrossManyDisjointPublishes: a cached answer survives 100
// publishes on a label outside its alphabet — more than the 64-link
// delta chain reaches — and the next read is cached with no barrier.
func TestRetainAcrossManyDisjointPublishes(t *testing.T) {
	e := New(buildFixture(), Options{})
	first, err := evalNodes(e, "tram·cinema")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Mutate([]EdgeSpec{{From: fmt.Sprintf("d%d", i), Label: "walk", To: fmt.Sprintf("d%d", i+1)}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := evalNodes(e, "tram·cinema")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Epoch != first.Epoch+100 {
		t.Fatalf("read after 100 disjoint publishes: cached %v at epoch %d, want cached at %d", got.Cached, got.Epoch, first.Epoch+100)
	}
	if !slices.Equal(got.Nodes, first.Nodes) {
		t.Fatalf("retained nodes %v, first read %v", got.Nodes, first.Nodes)
	}
	if st := e.Stats(); st.ResultMisses != 1 || st.ResultRetained != 1 {
		t.Fatalf("misses %d retained %d, want 1 and 1", st.ResultMisses, st.ResultRetained)
	}
}

// TestFirstReadAfterDisjointPublishIsCached: right after a publish on a
// label outside the plan's alphabet, the first read of every semantics is
// served from the cache at the new epoch; nothing waits for maintenance.
func TestFirstReadAfterDisjointPublishIsCached(t *testing.T) {
	e := New(buildFixture(), Options{})
	reqs := []Request{
		{Query: "tram·cinema"},
		{Query: "tram·cinema", Semantics: "witness"},
		{Query: "tram·cinema", Semantics: "count"},
		{Query: "tram", Semantics: "pairsFrom", From: "N1"},
	}
	ctx := context.Background()
	var before []Answer
	for _, req := range reqs {
		a, err := e.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, a)
	}
	m, err := e.Mutate([]EdgeSpec{{From: "N1", Label: "walk", To: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		a, err := e.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Cached || a.Epoch != m.Epoch {
			t.Fatalf("%+v: cached %v at epoch %d, want cached at %d", req, a.Cached, a.Epoch, m.Epoch)
		}
		if a.Count != before[i].Count {
			t.Fatalf("%+v: count %d, before the publish %d", req, a.Count, before[i].Count)
		}
	}
	if st := e.Stats(); st.ResultMisses != uint64(len(reqs)) || st.ResultRetained != uint64(len(reqs)) {
		t.Fatalf("misses %d retained %d, want %d each", st.ResultMisses, st.ResultRetained, len(reqs))
	}
}

// TestOverlappingPublishDropsPairsFromRegrowsNodes: a pairsFrom entry
// keeps no fixpoint, so the first read after a publish on its alphabet
// drops it and recomputes — uncached, equal to a scratch EvaluateReq —
// while a nodes entry hit by the same publish regrows.
func TestOverlappingPublishDropsPairsFromRegrowsNodes(t *testing.T) {
	e := New(buildFixture(), Options{})
	ctx := context.Background()
	const src = "(tram+bus)*·cinema"
	pairs := Request{Query: src, Semantics: "pairsFrom", From: "N3"}
	nodesReq := Request{Query: src}
	for _, req := range []Request{pairs, nodesReq} {
		if _, err := e.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	pairsMasks := func() []uint64 {
		e.results.mu.Lock()
		defer e.results.mu.Unlock()
		for k, ent := range e.results.entries {
			if k.sem == query.SemanticsPairsFrom {
				return ent.masks
			}
		}
		t.Fatal("no pairsFrom entry cached")
		return nil
	}
	if m := pairsMasks(); m != nil {
		t.Fatalf("warmed pairsFrom entry holds %d fixpoint masks", len(m))
	}

	// N3 -tram-> N5 -bus-> N5 reaches a cinema edge only after this.
	if _, err := e.Mutate([]EdgeSpec{{From: "N5", Label: "cinema", To: "C2"}}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Evaluate(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Graph().Current()
	n3, _ := e.Graph().NodeByName("N3")
	want, _, err := query.MustParse(snap.Alphabet(), src).EvaluateReq(ctx, snap,
		query.Req{Semantics: query.SemanticsPairsFrom, From: n3, HasFrom: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Names(), []string{"C2"}) {
		t.Fatalf("pairsFrom after the publish: %v cached %v, want [C2] (scratch %v) uncached", got.Names(), got.Cached, want.Nodes)
	}
	if st := e.Stats(); st.ResultDropped != 1 || st.ResultRegrown != 0 {
		t.Fatalf("pairsFrom read: dropped %d regrown %d, want 1 and 0", st.ResultDropped, st.ResultRegrown)
	}
	if m := pairsMasks(); m != nil {
		t.Fatalf("recomputed pairsFrom entry holds %d fixpoint masks", len(m))
	}

	sel, err := e.Evaluate(ctx, nodesReq)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Cached || !slices.Equal(slices.Sorted(slices.Values(sel.Names())), []string{"N1", "N2", "N3", "N4", "N5"}) {
		t.Fatalf("nodes after the publish: %v cached %v, want [N1 N2 N3 N4 N5] regrown", sel.Names(), sel.Cached)
	}
	if st := e.Stats(); st.ResultDropped != 1 || st.ResultRegrown != 1 {
		t.Fatalf("nodes read: dropped %d regrown %d, want 1 and 1", st.ResultDropped, st.ResultRegrown)
	}
}

// TestReaderBelowValidFromKeepsNewerEntry: a reader pinned to an epoch
// older than the cached entry's gets its own epoch's answer, computed
// uncached, and the newer entry stays cached.
func TestReaderBelowValidFromKeepsNewerEntry(t *testing.T) {
	e := New(buildFixture(), Options{})
	old := e.Graph().Current()
	if _, err := e.Mutate([]EdgeSpec{{From: "N5", Label: "cinema", To: "C2"}}); err != nil {
		t.Fatal(err)
	}
	newer, err := evalNodes(e, "bus·cinema")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.plans.get("bus·cinema")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := e.evaluateOn(context.Background(), old, p, query.Req{Semantics: query.SemanticsNodes})
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.Names(); pinned.Cached || pinned.Epoch != old.Epoch() || !slices.Equal(got, []string{"N2"}) {
		t.Fatalf("pinned reader: %v cached %v at epoch %d, want [N2] uncached at %d", got, pinned.Cached, pinned.Epoch, old.Epoch())
	}
	again, err := evalNodes(e, "bus·cinema")
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Names(); !again.Cached || again.Epoch != newer.Epoch || !slices.Equal(got, []string{"N2", "N5"}) {
		t.Fatalf("newer entry after the pinned read: %v cached %v at epoch %d, want [N2 N5] cached at %d", got, again.Cached, again.Epoch, newer.Epoch)
	}
	if st := e.Stats(); st.ResultMisses != 2 || st.ResultDropped != 0 {
		t.Fatalf("misses %d dropped %d, want 2 and 0", st.ResultMisses, st.ResultDropped)
	}
}
