package engine

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/query"
)

// TestV1QueryGolden pins the /v1/query wire format: exact response bodies
// for every semantics on the shared fixture (epoch 1, nothing cached yet),
// so any accidental field rename, reorder, or shape change fails loudly.
func TestV1QueryGolden(t *testing.T) {
	e := New(buildFixture(), Options{})
	h := NewHandler(e)

	cases := []struct {
		name string
		body string
		want string
	}{
		{
			name: "nodes",
			body: `{"query":"tram·cinema"}`,
			want: `{"epoch":1,"semantics":"nodes","count":1,"cached":false,"nodes":["N1"]}`,
		},
		{
			name: "nodes explicit semantics, cached repeat",
			body: `{"query":"tram·cinema","semantics":"nodes"}`,
			want: `{"epoch":1,"semantics":"nodes","count":1,"cached":true,"nodes":["N1"]}`,
		},
		{
			name: "pairsFrom",
			body: `{"query":"tram·cinema","semantics":"pairsFrom","from":"N1"}`,
			want: `{"epoch":1,"semantics":"pairsFrom","count":1,"cached":false,"nodes":["C1"]}`,
		},
		{
			name: "witness",
			body: `{"query":"tram·cinema","semantics":"witness"}`,
			want: `{"epoch":1,"semantics":"witness","count":1,"cached":false,"paths":[{"nodes":["N1","N4","C1"],"word":"tram·cinema"}]}`,
		},
		{
			name: "count",
			body: `{"query":"tram·cinema","semantics":"count","maxLen":4}`,
			want: `{"epoch":1,"semantics":"count","count":1,"cached":false,"counts":[{"node":"N1","count":1}]}`,
		},
		{
			name: "shortest per node",
			body: `{"query":"cinema","semantics":"shortest"}`,
			want: `{"epoch":1,"semantics":"shortest","count":1,"cached":false,"paths":[{"nodes":["N4","C1"],"word":"cinema"}]}`,
		},
		{
			name: "shortest per pair",
			body: `{"query":"bus·cinema","semantics":"shortest","from":"N2"}`,
			want: `{"epoch":1,"semantics":"shortest","count":1,"cached":false,"paths":[{"nodes":["N2","N4","C1"],"word":"bus·cinema"}]}`,
		},
		{
			name: "empty selection",
			body: `{"query":"cinema·tram"}`,
			want: `{"epoch":1,"semantics":"nodes","count":0,"cached":false}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(tc.body)))
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
			}
			if got := strings.TrimSpace(rr.Body.String()); got != tc.want {
				t.Fatalf("body\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestV1QueryErrorEnvelope pins the structured error envelope across the
// error taxonomy: bad query, unknown semantics, unknown node, abstain,
// bad body, oversized body, and the from-validation errors.
func TestV1QueryErrorEnvelope(t *testing.T) {
	e := New(buildFixture(), Options{})
	h := NewHandler(e)
	over := strings.Repeat("g", 9<<20) // past MaxBodyBytes

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"bad query", "/v1/query", `{"query":"tram·("}`, 400, "parse_error"},
		{"unknown semantics", "/v1/query", `{"query":"tram","semantics":"pairs"}`, 400, "unknown_semantics"},
		{"unknown node", "/v1/query", `{"query":"tram","semantics":"pairsFrom","from":"NOPE"}`, 404, "unknown_node"},
		{"missing from", "/v1/query", `{"query":"tram","semantics":"pairsFrom"}`, 400, "missing_from"},
		{"unexpected from", "/v1/query", `{"query":"tram","semantics":"witness","from":"N1"}`, 400, "unexpected_from"},
		{"maxLen too large", "/v1/query", `{"query":"tram","semantics":"count","maxLen":1000000}`, 400, "max_len_too_large"},
		{"bad body", "/v1/query", `{"quer":"tram"}`, 400, "bad_body"},
		{"malformed json", "/v1/query", `{"query":`, 400, "bad_body"},
		{"trailing garbage", "/v1/query", `{"query":"tram"} garbage`, 400, "bad_body"},
		{"second request appended", "/v1/query", `{"query":"tram"}{"query":"(("}`, 400, "bad_body"},
		{"abstain", "/learn", `{"pos":[],"neg":["N1"]}`, 422, "abstain"},
		{"batch member error", "/v1/batch", `{"requests":[{"query":"tram"},{"query":"(("}]}`, 400, "parse_error"},
		{"batch member unknown node", "/v1/batch", `{"requests":[{"query":"tram"},{"query":"tram","semantics":"pairsFrom","from":"NOPE"}]}`, 404, "unknown_node"},
		// A null body is its route's zero request (TestV1DecodeEdgeAnswers
		// has the routes that answer it 200).
		{"null query", "/v1/query", `null`, 400, "parse_error"},
		{"null learn", "/learn", `null`, 422, "abstain"},
		// Every body past MaxBodyBytes is too large, however early it
		// stops being a valid one.
		{"valid object then oversized", "/v1/query", `{"query":"tram"}` + over, 413, "body_too_large"},
		{"invalid then oversized", "/v1/query", `}` + over, 413, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
			if rr.Code != tc.status {
				t.Fatalf("status %d, want %d (%.200s)", rr.Code, tc.status, rr.Body.String())
			}
			var env errorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
				t.Fatalf("response is not an error envelope: %v (%s)", err, rr.Body.String())
			}
			if env.Error.Code != tc.code || env.Error.Message == "" {
				t.Fatalf("envelope %+v, want code %q with a message", env, tc.code)
			}
			if strings.HasPrefix(tc.path, "/v1/batch") && !strings.Contains(env.Error.Message, "batch request 1") {
				t.Fatalf("batch error does not name the failing member: %q", env.Error.Message)
			}
		})
	}
}

// TestV1DecodeEdgeAnswers pins the answers of the decoding edge cases that
// are not errors: a null batch is no requests and a null mutation no
// edges, and a key selects its field under case folding.
func TestV1DecodeEdgeAnswers(t *testing.T) {
	h := NewHandler(New(buildFixture(), Options{}))
	cases := []struct {
		path, body, want string
	}{
		{"/v1/batch", `null`, `{"epoch":1,"answers":[]}`},
		{"/mutate", `null`, `{"epoch":1,"nodes":6,"edges":5}`},
		{"/v1/query", `{"QUERY":"tram"}`, `{"epoch":1,"semantics":"nodes","count":2,"cached":false,"nodes":["N1","N3"]}`},
		{"/v1/query", `{"ſemantics":"count","query":"tram"}`, `{"epoch":1,"semantics":"count","count":2,"cached":false,"counts":[{"node":"N1","count":1},{"node":"N3","count":1}]}`},
	}
	for _, tc := range cases {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if got := strings.TrimSpace(rr.Body.String()); rr.Code != http.StatusOK || got != tc.want {
			t.Errorf("%s %s: status %d body %s, want 200 %s", tc.path, tc.body, rr.Code, got, tc.want)
		}
	}
}

// TestV1BatchSharedEpoch: a batch answers every request from one pinned
// snapshot and reports that epoch exactly once; duplicate members share
// one evaluation.
func TestV1BatchSharedEpoch(t *testing.T) {
	e := New(buildFixture(), Options{})
	h := NewHandler(e)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(
		`{"requests":[{"query":"tram"},{"query":"bus","semantics":"witness"},{"query":"tram·cinema","semantics":"count"},{"query":"tram"}]}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var out struct {
		Epoch   uint64 `json:"epoch"`
		Answers []struct {
			Epoch     uint64 `json:"epoch"`
			Semantics string `json:"semantics"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 1 || len(out.Answers) != 4 {
		t.Fatalf("batch: %+v", out)
	}
	if st := e.Stats(); st.ResultMisses != 3 {
		t.Errorf("ResultMisses = %d, want 3 (the duplicate shares one evaluation)", st.ResultMisses)
	}
	for i, ans := range out.Answers {
		if ans.Epoch != out.Epoch {
			t.Errorf("answer %d epoch %d, batch epoch %d", i, ans.Epoch, out.Epoch)
		}
	}
	if out.Answers[1].Semantics != "witness" || out.Answers[2].Semantics != "count" {
		t.Errorf("per-request semantics not honored: %+v", out.Answers)
	}
}

// TestV1QueryCancellation: a request arriving with an already-exceeded
// deadline answers 504 deadline_exceeded; an already-canceled context
// answers 499 — and both return promptly even under -race.
func TestV1QueryCancellation(t *testing.T) {
	e := New(datasets.Synthetic(500, 1), Options{})
	h := NewHandler(e)

	deadline, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"query":"l00·l01*"}`)).WithContext(deadline)
	h.ServeHTTP(rr, req)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-exceeded request took %v", elapsed)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusGatewayTimeout || env.Error.Code != "deadline_exceeded" {
		t.Fatalf("status %d code %q, want 504 deadline_exceeded", rr.Code, env.Error.Code)
	}

	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	rr = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"query":"l00·l01*"}`)).WithContext(canceled)
	h.ServeHTTP(rr, req)
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if rr.Code != 499 || env.Error.Code != "canceled" {
		t.Fatalf("status %d code %q, want 499 canceled", rr.Code, env.Error.Code)
	}

	// A canceled request caches nothing: the same query served with a live
	// context computes fresh and succeeds.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"query":"l00·l01*"}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("post-cancel request: status %d (%s)", rr.Code, rr.Body.String())
	}
	var ans struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Cached {
		t.Fatal("canceled evaluation left a cached answer behind")
	}
}

// TestEvaluateDeadlineAbortsMidTraversal drives a genuinely long
// evaluation (count semantics walks one backward relaxation per length)
// into a short deadline and asserts it aborts mid-traversal, promptly,
// with context.DeadlineExceeded.
func TestEvaluateDeadlineAbortsMidTraversal(t *testing.T) {
	e := New(datasets.Synthetic(3000, 7), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Evaluate(ctx, Request{Query: "(l00+l01+l02)*·l03", Semantics: "count", MaxLen: 4096})
	elapsed := time.Since(start)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded evaluation took %v", elapsed)
	}
}

// TestEvaluateCacheKeyedBySemanticsAndArgs: the result cache must not
// conflate result shapes or arguments of the same query language.
func TestEvaluateCacheKeyedBySemanticsAndArgs(t *testing.T) {
	e := New(buildFixture(), Options{})
	ctx := context.Background()

	first, err := e.Evaluate(ctx, Request{Query: "tram·cinema"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold nodes evaluation reported cached")
	}
	// Same language, different shape: a fresh evaluation, not the cached
	// node list.
	wit, err := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "witness"})
	if err != nil {
		t.Fatal(err)
	}
	if wit.Cached || len(wit.Paths) != 1 {
		t.Fatalf("witness after nodes: cached %v paths %d", wit.Cached, len(wit.Paths))
	}
	// Different witness limits are distinct cache entries (the limit
	// bounds the work), same limit is a hit.
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "witness", Limit: 1}); a.Cached {
		t.Fatal("limit=1 witness served from the limit=0 entry")
	}
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "witness"}); !a.Cached {
		t.Fatal("repeat witness not cached")
	}
	// Shortest without an anchor is witness by definition: it shares the
	// witness cache entry while still reporting the requested semantics.
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "shortest"}); !a.Cached || a.Semantics != query.SemanticsShortest {
		t.Fatalf("shortest without from: cached %v semantics %v, want shared witness entry labeled shortest", a.Cached, a.Semantics)
	}
	// Different count bounds are distinct entries.
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "count", MaxLen: 3}); a.Cached {
		t.Fatal("cold count reported cached")
	}
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "count", MaxLen: 4}); a.Cached {
		t.Fatal("maxLen=4 count served from the maxLen=3 entry")
	}
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "count", MaxLen: 3}); !a.Cached {
		t.Fatal("repeat count not cached")
	}
	// pairsFrom entries are keyed by the anchor node.
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "pairsFrom", From: "N1"}); a.Cached {
		t.Fatal("cold pairsFrom reported cached")
	}
	if a, _ := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "pairsFrom", From: "N2"}); a.Cached {
		t.Fatal("pairsFrom N2 served from the N1 entry")
	}
	// An explicit "nodes" shares the default-semantics entry, and
	// syntactic variants share the plan key.
	if a, err := e.Evaluate(ctx, Request{Query: "tram·cinema", Semantics: "nodes"}); err != nil || !a.Cached {
		t.Fatalf("explicit nodes after default: cached %v err %v", a.Cached, err)
	}
	if a, _ := e.Evaluate(ctx, Request{Query: "tram.cinema"}); !a.Cached {
		t.Fatal("syntactic variant missed the language-keyed cache")
	}
}

// TestEvaluateWitnessReverifies: the acceptance criterion — every path of
// a witness answer re-verifies under Query.Accepts of the served query.
func TestEvaluateWitnessReverifies(t *testing.T) {
	e := New(buildFixture(), Options{})
	for _, src := range []string{"tram·cinema", "(tram+bus)*·cinema", "bus", "tram*"} {
		ans, err := e.Evaluate(context.Background(), Request{Query: src, Semantics: "witness"})
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(e.Graph().Alphabet(), src)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Paths) != ans.Count {
			t.Fatalf("%s: %d paths for %d selected", src, len(ans.Paths), ans.Count)
		}
		for _, pw := range ans.Paths {
			if !q.Accepts(pw.Word) {
				t.Errorf("%s: witness word %v rejected by Accepts", src, pw.Word)
			}
		}
	}
}

// TestWitnessLimitNormalization regresses the int32 key-narrowing alias:
// absent, huge, and negative limits all normalize to the per-request path
// cap before keying, so a limit differing by a multiple of 2^32 can never
// serve another request's entry, and "no limit" still bounds the work.
func TestWitnessLimitNormalization(t *testing.T) {
	e := New(buildFixture(), Options{})
	ctx := context.Background()
	cold, err := e.Evaluate(ctx, Request{Query: "tram", Semantics: "witness"})
	if err != nil || cold.Cached {
		t.Fatalf("cold witness: cached %v err %v", cold.Cached, err)
	}
	// A huge limit used to survive into the int32 key narrowing (2^32+5
	// truncated to key.limit = 5); now any over-cap value normalizes to
	// the cap, sharing the default entry (and never a truncated one).
	huge, err := e.Evaluate(ctx, Request{Query: "tram", Semantics: "witness", Limit: math.MaxInt})
	if err != nil || !huge.Cached {
		t.Fatalf("huge-limit witness: cached %v err %v (want the normalized default entry)", huge.Cached, err)
	}
	if neg, _ := e.Evaluate(ctx, Request{Query: "tram", Semantics: "witness", Limit: -1}); !neg.Cached {
		t.Fatal("negative limit did not normalize to the default entry")
	}
	if small, _ := e.Evaluate(ctx, Request{Query: "tram", Semantics: "witness", Limit: 5}); small.Cached {
		t.Fatal("limit=5 served from the normalized-cap entry")
	}
}
