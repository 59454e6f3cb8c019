package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pathquery/internal/graph"
	"pathquery/internal/query"
)

func buildFixture() *graph.Graph {
	g := graph.New(nil)
	g.AddEdgeByName("N1", "tram", "N4")
	g.AddEdgeByName("N2", "bus", "N4")
	g.AddEdgeByName("N4", "cinema", "C1")
	g.AddEdgeByName("N3", "tram", "N5")
	g.AddEdgeByName("N5", "bus", "N5")
	return g
}

// evalNodes evaluates src under the default nodes semantics on the
// served epoch.
func evalNodes(e *Engine, src string) (Answer, error) {
	return e.Evaluate(context.Background(), Request{Query: src})
}

func names(t *testing.T, a Answer) []string {
	t.Helper()
	return a.Names()
}

func TestEngineSelectBasic(t *testing.T) {
	e := New(buildFixture(), Options{})
	res, err := evalNodes(e, "tram·cinema")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, res); len(got) != 1 || got[0] != "N1" {
		t.Fatalf("tram·cinema selected %v, want [N1]", got)
	}
	if res.Cached {
		t.Error("first select reported cached")
	}
	res2, err := evalNodes(e, "tram·cinema")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("repeat select not served from cache")
	}
	if res2.Epoch != res.Epoch {
		t.Errorf("epoch moved without mutation: %d -> %d", res.Epoch, res2.Epoch)
	}
	if _, err := evalNodes(e, "tram·("); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestEnginePlanCacheDedupesVariants(t *testing.T) {
	e := New(buildFixture(), Options{})
	if _, err := evalNodes(e, "tram·cinema"); err != nil {
		t.Fatal(err)
	}
	// Same language, different syntax: shares the plan and therefore the
	// cached result.
	res, err := evalNodes(e, "tram.cinema")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("syntactic variant missed the result cache")
	}
	st := e.Stats()
	if st.Plans != 1 {
		t.Errorf("Plans = %d, want 1 (variants deduplicated by CacheKey)", st.Plans)
	}
	if st.PlanMisses != 2 {
		t.Errorf("PlanMisses = %d, want 2 (one compile per distinct source)", st.PlanMisses)
	}
}

// TestInstallCachedLanguageAllocatesNothing checks that installing a
// learned query whose language the cache already holds neither compiles
// its plan nor renders its source again: a repeat install of an
// equivalent query makes no allocation.
func TestInstallCachedLanguageAllocatesNothing(t *testing.T) {
	g := buildFixture()
	alpha := g.Alphabet()
	c := newPlanCache(alpha)
	// Learned queries carry no source expression, so String extracts one
	// from the DFA.
	learned := query.FromDFA(alpha, query.MustParse(alpha, "tram·cinema|bus·cinema").DFA())
	p := c.install(learned)
	again := query.FromDFA(alpha, query.MustParse(alpha, "(tram|bus)·cinema").DFA())
	if got := c.install(again); got != p {
		t.Fatal("an equivalent query installed a second plan")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.install(again) }); allocs != 0 {
		t.Fatalf("repeat install of a cached language made %v allocations, want 0", allocs)
	}
	var st Stats
	if c.fill(&st); st.Plans != 1 {
		t.Fatalf("Plans = %d, want 1", st.Plans)
	}
}

func TestEngineMutateAdvancesEpoch(t *testing.T) {
	e := New(buildFixture(), Options{})
	before, err := evalNodes(e, "bus·cinema")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, before); len(got) != 1 || got[0] != "N2" {
		t.Fatalf("bus·cinema selected %v, want [N2]", got)
	}
	// A node is addressable as an anchor exactly once an epoch serving it
	// is published.
	fromC2 := Request{Query: "cinema", Semantics: "pairsFrom", From: "C2"}
	var ae *APIError
	if _, err := e.Evaluate(context.Background(), fromC2); !errors.As(err, &ae) || ae.Code != "unknown_node" {
		t.Fatalf("anchor at a not-yet-created node: err %v, want unknown_node", err)
	}
	m, _ := e.Mutate([]EdgeSpec{{From: "N5", Label: "cinema", To: "C2"}})
	if m.Epoch != before.Epoch+1 {
		t.Fatalf("mutation published epoch %d, want %d", m.Epoch, before.Epoch+1)
	}
	if _, err := e.Evaluate(context.Background(), fromC2); err != nil {
		t.Fatalf("anchor at a node created by the served epoch: %v", err)
	}
	after, err := evalNodes(e, "bus·cinema")
	if err != nil {
		t.Fatal(err)
	}
	// The mutation touches the plan's alphabet ("cinema"), so the first
	// read at the new epoch regrows the cached entry incrementally: it is
	// served as cached and already includes the new edge.
	if !after.Cached {
		t.Error("post-mutation select missed the regrown cache entry")
	}
	if st := e.Stats(); st.ResultRegrown == 0 {
		t.Errorf("ResultRegrown = 0 after an alphabet-overlapping mutation; stats %+v", st)
	}
	if got := names(t, after); len(got) != 2 || got[0] != "N2" || got[1] != "N5" {
		t.Fatalf("bus·cinema after mutation selected %v, want [N2 N5]", got)
	}
	// The pinned pre-mutation result is immutable.
	if got := names(t, before); len(got) != 1 || got[0] != "N2" {
		t.Errorf("pre-mutation result changed retroactively: %v", got)
	}
}

func TestEngineSingleFlight(t *testing.T) {
	// Fresh engine, k concurrent identical requests: exactly one product
	// pass; everyone else hits the cache or shares the in-flight call.
	e := New(buildFixture(), Options{})
	const k = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(k)
	results := make([]Answer, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			r, err := evalNodes(e, "tram·cinema")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	start.Done()
	done.Wait()
	for i, r := range results {
		if len(r.Nodes) != 1 {
			t.Fatalf("request %d: %d nodes, want 1", i, len(r.Nodes))
		}
	}
	st := e.Stats()
	if st.ResultMisses != 1 {
		t.Errorf("ResultMisses = %d, want exactly 1 compute for %d concurrent requests", st.ResultMisses, k)
	}
	if st.ResultHits+st.ResultShared != k-1 {
		t.Errorf("hits %d + shared %d = %d, want %d", st.ResultHits, st.ResultShared,
			st.ResultHits+st.ResultShared, k-1)
	}
}

// queryPool is the mix used by the randomized tests; all labels come from
// the small vocabulary the random mutations draw from.
var queryPool = []string{
	"a", "b·c", "a·b*", "(a+b)·c", "a*·c", "(a+c)*·b", "b*",
}

// randomEdge draws a random (from, label, to) over a bounded node universe.
func randomEdge(rng *rand.Rand) EdgeSpec {
	return EdgeSpec{
		From:  fmt.Sprintf("v%d", rng.Intn(40)),
		Label: string(rune('a' + rng.Intn(3))),
		To:    fmt.Sprintf("v%d", rng.Intn(40)),
	}
}

// TestEnginePropertyCachedVsUncached cross-checks the serving engine
// against the uncached library over randomized mutate/select
// interleavings: after every step, an Evaluate or EvaluateBatch through
// the engine (plan cache, result cache, epochs) must agree with a fresh
// Query.Evaluate on an identically-built mirror graph. Run under
// -race in CI.
func TestEnginePropertyCachedVsUncached(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		e := New(graph.New(nil), Options{})
		var edges []EdgeSpec
		for step := 0; step < 120; step++ {
			switch {
			case step == 0 || rng.Intn(3) == 0: // mutate
				n := 1 + rng.Intn(3)
				batch := make([]EdgeSpec, n)
				for i := range batch {
					batch[i] = randomEdge(rng)
				}
				edges = append(edges, batch...)
				m, _ := e.Mutate(batch)
				if m.Epoch != e.Epoch() {
					t.Fatalf("trial %d step %d: mutation epoch %d != served %d",
						trial, step, m.Epoch, e.Epoch())
				}
			case rng.Intn(4) == 0: // batch select
				k := 1 + rng.Intn(4)
				reqs := make([]Request, k)
				for i := range reqs {
					reqs[i] = Request{Query: queryPool[rng.Intn(len(queryPool))]}
				}
				_, answers, err := e.EvaluateBatch(context.Background(), reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range answers {
					checkAgainstMirror(t, trial, step, reqs[i].Query, edges, a)
				}
			default: // single select
				src := queryPool[rng.Intn(len(queryPool))]
				r, err := evalNodes(e, src)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstMirror(t, trial, step, src, edges, r)
			}
		}
	}
}

// checkAgainstMirror compares an engine result with an uncached evaluation
// on a freshly built graph with the same edges.
func checkAgainstMirror(t *testing.T, trial, step int, src string, edges []EdgeSpec, r Answer) {
	t.Helper()
	mirror := graph.New(nil)
	for _, ed := range edges {
		mirror.AddEdgeByName(ed.From, ed.Label, ed.To)
	}
	q, err := query.Parse(mirror.Alphabet(), src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, v := range q.Evaluate(mirror.Snapshot()).Nodes() {
		want[mirror.NodeName(v)] = true
	}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("trial %d step %d query %q: engine selected %d nodes %v, uncached %d",
			trial, step, src, len(got), got, len(want))
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("trial %d step %d query %q: engine selected %q, uncached did not",
				trial, step, src, name)
		}
	}
}

// TestEngineConcurrentMutateSelect hammers the engine from concurrent
// readers, batchers, and a mutating writer — the stress companion of the
// property test, meaningful under -race. Correctness invariants checked
// inside: results are internally consistent name resolutions, epochs only
// move forward, and the final state agrees with an uncached mirror.
func TestEngineConcurrentMutateSelect(t *testing.T) {
	e := New(graph.New(nil), Options{})
	seed, _ := e.Mutate([]EdgeSpec{{From: "v0", Label: "a", To: "v1"}, {From: "v1", Label: "b", To: "v2"}})
	if seed.Epoch == 0 {
		t.Fatal("no epoch published")
	}
	const (
		readers   = 6
		mutations = 60
		selects   = 200
	)
	var edgesMu sync.Mutex
	edges := []EdgeSpec{{From: "v0", Label: "a", To: "v1"}, {From: "v1", Label: "b", To: "v2"}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single logical writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		last := uint64(0)
		for i := 0; i < mutations; i++ {
			ed := randomEdge(rng)
			edgesMu.Lock()
			edges = append(edges, ed)
			edgesMu.Unlock()
			m, _ := e.Mutate([]EdgeSpec{ed})
			if m.Epoch <= last {
				t.Errorf("epoch went backwards: %d after %d", m.Epoch, last)
				return
			}
			last = m.Epoch
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lastEpoch := uint64(0)
			for i := 0; i < selects; i++ {
				var r Answer
				var err error
				if rng.Intn(5) == 0 {
					var rs []Answer
					_, rs, err = e.EvaluateBatch(context.Background(), []Request{
						{Query: queryPool[rng.Intn(len(queryPool))]},
						{Query: queryPool[rng.Intn(len(queryPool))]},
					})
					if err == nil {
						r = rs[0]
					}
				} else {
					r, err = evalNodes(e, queryPool[rng.Intn(len(queryPool))])
				}
				if err != nil {
					t.Error(err)
					return
				}
				if r.Epoch < lastEpoch {
					t.Errorf("reader %d observed epoch regression %d -> %d", w, lastEpoch, r.Epoch)
					return
				}
				lastEpoch = r.Epoch
				r.Names() // must not race with the writer
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: the engine must agree with an uncached mirror of the final
	// edge list.
	for _, src := range queryPool {
		r, err := evalNodes(e, src)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstMirror(t, -1, -1, src, edges, r)
	}
}

// TestResultCacheStaleRequestKeepsFreshEntries regresses an eviction bug:
// a request pinned to an older epoch arriving at a full cache must not
// wipe the warm current-epoch entries.
func TestResultCacheStaleRequestKeepsFreshEntries(t *testing.T) {
	c := newResultCache(3)
	snaps := epochSnaps(2)
	for _, p := range []string{"a", "b", "c"} {
		c.do(context.Background(), resultKey{plan: p}, snaps[1], nil, 0, func() (query.Answer, []uint64, error) { return query.Answer{}, nil, nil })
	}
	computed := false
	c.do(context.Background(), resultKey{plan: "stale"}, snaps[0], nil, 0, func() (query.Answer, []uint64, error) {
		computed = true
		return query.Answer{}, nil, nil
	})
	if !computed {
		t.Fatal("stale-epoch request was not computed")
	}
	fresh := 0
	for _, p := range []string{"a", "b", "c"} {
		if _, cached, _ := c.do(context.Background(), resultKey{plan: p}, snaps[1], nil, 0, func() (query.Answer, []uint64, error) { return query.Answer{}, nil, nil }); cached {
			fresh++
		}
	}
	// Capacity pressure may evict one completed entry, never the whole
	// current epoch.
	if fresh < 2 {
		t.Errorf("only %d of 3 current-epoch entries survived a stale request", fresh)
	}
}

// TestResultCachePanicRetries regresses the single-flight panic path: a
// panicking compute must propagate, leave the key retryable, and never be
// served to anyone as an empty cached result.
func TestResultCachePanicRetries(t *testing.T) {
	c := newResultCache(8)
	snap := epochSnaps(1)[0]
	key := resultKey{plan: "boom"}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute panic did not propagate")
			}
		}()
		c.do(context.Background(), key, snap, nil, 0, func() (query.Answer, []uint64, error) { panic("product engine bug") })
	}()
	ent, cached, err := c.do(context.Background(), key, snap, nil, 0, func() (query.Answer, []uint64, error) {
		return query.Answer{Nodes: []graph.NodeID{7}, Count: 1}, nil, nil
	})
	if err != nil || cached || len(ent.ans.Nodes) != 1 || ent.ans.Nodes[0] != 7 {
		t.Errorf("after panic: answer %v cached %v err %v, want fresh [7]", ent.ans.Nodes, cached, err)
	}
}

func TestEngineResultCacheEviction(t *testing.T) {
	e := New(buildFixture(), Options{ResultCacheCap: 2})
	for i, src := range []string{"tram", "bus", "cinema", "tram·cinema"} {
		if _, err := evalNodes(e, src); err != nil {
			t.Fatalf("select %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.ResultEntries > 2 {
		t.Errorf("ResultEntries = %d, want ≤ cap 2", st.ResultEntries)
	}
}
