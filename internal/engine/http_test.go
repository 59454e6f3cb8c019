package engine

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPHandler(t *testing.T) {
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

	code, out := post("/v1/query", `{"query":"tram·cinema"}`)
	if code != http.StatusOK {
		t.Fatalf("/v1/query: status %d (%v)", code, out)
	}
	if out["count"].(float64) != 1 || out["nodes"].([]any)[0] != "N1" || out["cached"] != false {
		t.Fatalf("/v1/query: %v", out)
	}
	epoch0 := out["epoch"].(float64)
	if code, out = post("/v1/query", `{"query":"tram·cinema"}`); code != http.StatusOK || out["cached"] != true {
		t.Fatalf("/v1/query repeat: status %d (%v), want a cache hit", code, out)
	}

	if code, out = post("/v1/query", `{"query":"tram·("}`); code != http.StatusBadRequest {
		t.Fatalf("/v1/query bad query: status %d (%v)", code, out)
	}
	if code, out = post("/v1/query", `{"quer":"tram"}`); code != http.StatusBadRequest {
		t.Fatalf("/v1/query unknown field: status %d (%v)", code, out)
	}

	code, out = post("/v1/query", `{"query":"tram·cinema","semantics":"pairsFrom","from":"N1"}`)
	if code != http.StatusOK || out["nodes"].([]any)[0] != "C1" {
		t.Fatalf("/v1/query pairsFrom: status %d %v", code, out)
	}

	code, out = post("/v1/batch", `{"requests":[{"query":"tram","limit":1},{"query":"bus"}]}`)
	if code != http.StatusOK || len(out["answers"].([]any)) != 2 {
		t.Fatalf("/v1/batch: status %d %v", code, out)
	}

	// The pre-v1 routes are gone.
	for _, path := range []string{"/select", "/selectPairs", "/batch"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"query":"tram"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	code, out = post("/mutate", `{"edges":[{"from":"N9","label":"tram","to":"N4"}]}`)
	if code != http.StatusOK {
		t.Fatalf("/mutate: status %d %v", code, out)
	}
	if got := out["epoch"].(float64); got != epoch0+1 {
		t.Fatalf("/mutate: epoch %v, want %v", got, epoch0+1)
	}
	if code, out = post("/mutate", `{"edges":[{"from":"N9","to":"N4"}]}`); code != http.StatusBadRequest {
		t.Fatalf("/mutate missing label: status %d %v", code, out)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != uint64(epoch0)+1 || st.Mutations != 1 || st.Queries == 0 {
		t.Fatalf("/stats: %+v", st)
	}
	if st.Plans == 0 || st.PlanStates == 0 || st.PlanCompileNs <= 0 {
		t.Fatalf("/stats plan aggregates: %+v", st)
	}

	resp, err = http.Get(srv.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plans struct {
		Plans []PlanInfo `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	if len(plans.Plans) != st.Plans {
		t.Fatalf("/plans listed %d plans, /stats says %d", len(plans.Plans), st.Plans)
	}
	// "tram·cinema" was served three times (nodes, its repeat, pairsFrom)
	// and must lead the hit-ordered listing with its compile metadata
	// filled in.
	top := plans.Plans[0]
	if top.Source != "tram·cinema" || top.Hits < 2 {
		t.Fatalf("/plans top entry: %+v", top)
	}
	if top.States == 0 || top.Key == "" || top.CompileNs <= 0 || top.Layout != "masked" {
		t.Fatalf("/plans metadata: %+v", top)
	}
}

// TestLearnRejectsBadK: an SCP bound the learner cannot run with is a bad
// request, not the paper's abstain. The dynamic schedule starts at k = 2,
// so maxk 1 would run no learner at all; a k or maxk above maxLearnK
// would let one request buy unbounded rounds.
func TestLearnRejectsBadK(t *testing.T) {
	h := NewHandler(New(buildFixture(), Options{}))
	learn := func(params string) (int, errorEnvelope) {
		t.Helper()
		rr := httptest.NewRecorder()
		body := `{"pos":["N1"],"neg":["N3","N5"]` + params + `}`
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/learn", strings.NewReader(body)))
		var env errorEnvelope
		if rr.Code != http.StatusOK {
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s: response is not an error envelope: %v (%s)", params, err, rr.Body.String())
			}
		}
		return rr.Code, env
	}
	for _, params := range []string{`,"maxk":1`, `,"maxk":-1`, `,"k":-5`, `,"k":-1,"maxk":4`,
		`,"maxk":17`, `,"k":17`, `,"maxk":2147483647`} {
		if code, env := learn(params); code != http.StatusBadRequest || env.Error.Code != "bad_k" {
			t.Errorf("%s: status %d, envelope %+v; want 400 bad_k", params, code, env)
		}
	}
	for _, params := range []string{``, `,"maxk":2`, `,"k":3`, `,"maxk":16`} {
		if code, env := learn(params); code != http.StatusOK {
			t.Errorf("%s: status %d, envelope %+v; want 200", params, code, env)
		}
	}
}
