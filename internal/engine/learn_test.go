package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/graph"
)

// sampleFor resolves names on the engine's served epoch.
func sampleFor(t *testing.T, e *Engine, pos, neg []string) core.Sample {
	t.Helper()
	var s core.Sample
	for _, name := range pos {
		id, ok := e.Graph().NodeByName(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		s.Pos = append(s.Pos, id)
	}
	for _, name := range neg {
		id, ok := e.Graph().NodeByName(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		s.Neg = append(s.Neg, id)
	}
	return s
}

func TestEngineLearnInstallsAndServes(t *testing.T) {
	e := New(buildFixture(), Options{})
	// N1 has tram·cinema; N3 has tram·bus* — learn "what distinguishes N1
	// from N3/N5".
	lr, err := e.Learn(sampleFor(t, e, []string{"N1"}, []string{"N3", "N5"}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Query == nil || lr.Source == "" || lr.Key == "" {
		t.Fatalf("incomplete result %+v", lr)
	}
	if lr.Epoch != e.Epoch() {
		t.Fatalf("learned on epoch %d, serving %d", lr.Epoch, e.Epoch())
	}
	sel := names(t, lr.Selection)
	found := false
	for _, n := range sel {
		if n == "N1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("learned query does not select positive N1: %v", sel)
	}
	// Learn→serve: the rendered source must parse back onto the installed
	// plan and hit the warmed result cache at the same epoch.
	res, err := evalNodes(e, lr.Source)
	if err != nil {
		t.Fatalf("re-issuing learned query %q: %v", lr.Source, err)
	}
	if !res.Cached {
		t.Fatalf("evaluation of learned query %q missed the warmed cache", lr.Source)
	}
	if res.Epoch != lr.Epoch || fmt.Sprint(names(t, res)) != fmt.Sprint(sel) {
		t.Fatalf("served %v@%d, learned %v@%d", names(t, res), res.Epoch, sel, lr.Epoch)
	}
	// The warm-up selection is part of the learn call, not a served query.
	st := e.Stats()
	if st.Learns != 1 || st.Queries != 1 {
		t.Fatalf("Learns = %d, Queries = %d; want 1 and 1 (the re-issue only)", st.Learns, st.Queries)
	}
}

func TestEngineLearnAbstainAndErrors(t *testing.T) {
	e := New(buildFixture(), Options{})
	if _, err := e.Learn(core.Sample{}, core.Options{}); !errors.Is(err, core.ErrAbstain) {
		t.Fatalf("empty sample: %v", err)
	}
	if _, err := e.LearnNamed([]string{"nope"}, nil, core.Options{}); err == nil {
		t.Fatal("unknown node accepted")
	}
	// Out-of-range ids are an error from sample validation, not a panic in
	// the CSR scans.
	if _, err := e.Learn(core.Sample{Pos: []graph.NodeID{9999}}, core.Options{}); err == nil {
		t.Fatal("out-of-range positive accepted")
	}
	if _, err := e.Learn(core.Sample{
		Pos: []graph.NodeID{0},
		Neg: []graph.NodeID{-1},
	}, core.Options{}); err == nil {
		t.Fatal("negative id accepted")
	}
}

// TestEngineLearnConcurrentWithMutate is the Learn/Mutate race regression
// test: before the learner ran on pinned snapshots it read the mutable
// build-side adjacency, so running it against concurrent Mutate/Snapshot
// publications was a data race (caught by -race). Now each Learn pins one
// epoch; the mutations here add disconnected edges, so every epoch's
// learned query must stay equivalent to a reference run made before the
// writer starts.
// TestLearnInconsistentNamesNode: the sink sample of core's
// TestLearnerStopsAtInconsistentPositive — the sink's only path is ε,
// which the negative covers — answers 422 inconsistent naming the sink,
// at any maxk; the error still matches core.ErrAbstain.
func TestLearnInconsistentNamesNode(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("a", "x", "b")
	g.AddEdgeByName("b", "y", "sink")
	g.AddEdgeByName("n", "x", "m")
	e := New(g, Options{})
	_, err := e.LearnNamed([]string{"a", "sink"}, []string{"n"}, core.Options{})
	var ie *core.InconsistentError
	if !errors.As(err, &ie) || ie.Name != "sink" || !errors.Is(err, core.ErrAbstain) {
		t.Fatalf("LearnNamed: err = %v, want an *InconsistentError naming sink that is ErrAbstain", err)
	}
	h := NewHandler(e)
	for _, body := range []string{`{"pos":["a","sink"],"neg":["n"]}`, `{"pos":["a","sink"],"neg":["n"],"maxk":16}`} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/learn", strings.NewReader(body)))
		var env errorEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v (%s)", body, err, rr.Body.String())
		}
		if rr.Code != http.StatusUnprocessableEntity || env.Error.Code != "inconsistent" ||
			!strings.Contains(env.Error.Message, `"sink"`) {
			t.Fatalf("%s: %d %s, want 422 inconsistent naming \"sink\"", body, rr.Code, rr.Body.String())
		}
	}
}

func TestEngineLearnConcurrentWithMutate(t *testing.T) {
	e := New(buildFixture(), Options{})
	sample := sampleFor(t, e, []string{"N1"}, []string{"N3", "N5"})
	ref, err := core.LearnDetailed(e.Graph().Current(), sample, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() { // writer: keeps publishing fresh epochs until told to stop
		defer writerWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Mutate([]EdgeSpec{{
				From:  fmt.Sprintf("m%d", i),
				Label: "offside",
				To:    fmt.Sprintf("m%d'", i),
			}})
		}
	}()
	var workWg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 2; w++ { // learners racing the writer
		workWg.Add(1)
		go func() {
			defer workWg.Done()
			for i := 0; i < rounds; i++ {
				lr, err := e.Learn(sample, core.Options{})
				if err != nil {
					errs <- fmt.Errorf("learn: %w", err)
					return
				}
				if !lr.Query.EquivalentTo(ref.Query) {
					errs <- fmt.Errorf("epoch %d learned %v, reference %v",
						lr.Epoch, lr.Query, ref.Query)
					return
				}
			}
		}()
	}
	workWg.Add(1)
	go func() { // reader sharing the caches with the learners
		defer workWg.Done()
		for i := 0; i < 4*rounds; i++ {
			if _, err := evalNodes(e, "tram·cinema"); err != nil {
				errs <- err
				return
			}
		}
	}()
	workWg.Wait()
	close(stop)
	writerWg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Quiesced cross-check on the final epoch.
	final, err := e.Learn(sample, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Query.EquivalentTo(ref.Query) {
		t.Fatalf("final learned %v, reference %v", final.Query, ref.Query)
	}
}

func TestHTTPLearnThenSelect(t *testing.T) {
	e := New(buildFixture(), Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, out
	}

	code, out := post("/learn", `{"pos":["N1"],"neg":["N3","N5"]}`)
	if code != http.StatusOK {
		t.Fatalf("/learn: status %d (%v)", code, out)
	}
	learned := out["query"].(string)
	if learned == "" || len(out["scps"].([]any)) == 0 {
		t.Fatalf("/learn: %v", out)
	}
	selection := out["selection"].(map[string]any)
	if selection["count"].(float64) < 1 {
		t.Fatalf("/learn selection empty: %v", out)
	}

	// The printed query serves immediately — and from the warmed cache.
	body, _ := json.Marshal(map[string]any{"query": learned})
	code, out = post("/v1/query", string(body))
	if code != http.StatusOK {
		t.Fatalf("/v1/query learned: status %d (%v)", code, out)
	}
	if out["cached"] != true || out["count"] != selection["count"] {
		t.Fatalf("/v1/query learned missed the cache or disagrees with /learn's selection: %v", out)
	}

	if code, out = post("/learn", `{"pos":[],"neg":["N1"]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("/learn abstain: status %d (%v)", code, out)
	}
	// An unknown example node is the same 404 unknown_node as an unknown
	// anchor on /v1/query.
	code, out = post("/learn", `{"pos":["ghost"]}`)
	if errObj, _ := out["error"].(map[string]any); code != http.StatusNotFound || errObj["code"] != "unknown_node" {
		t.Fatalf("/learn unknown node: status %d (%v)", code, out)
	}
}
