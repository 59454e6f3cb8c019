package engine

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzV1Query fuzzes the /v1/query request decoder and the evaluation
// argument validation behind it: malformed JSON, unknown fields, huge and
// negative limits, absurd maxLen values, bogus semantics and node names
// must all answer a well-formed JSON response with a sane status — never
// a panic, a hang, or a non-JSON body.
func FuzzV1Query(f *testing.F) {
	seeds := []string{
		`{"query":"tram·cinema"}`,
		`{"query":"tram·cinema","semantics":"witness","limit":2}`,
		`{"query":"(tram+bus)*·cinema","semantics":"count","maxLen":7}`,
		`{"query":"tram","semantics":"pairsFrom","from":"N1"}`,
		`{"query":"tram","semantics":"shortest","from":"N9"}`,
		`{"query":"tram","semantics":"fancy"}`,
		`{"query":"tram·("}`,
		`{"query":"tram","limit":-5}`,
		`{"query":"tram","limit":9223372036854775807}`,
		`{"query":"tram","semantics":"count","maxLen":9223372036854775807}`,
		`{"query":""}`,
		`{"quer":"tram"}`,
		`{"query":`,
		``,
		`[]`,
		`{"query":"tram","semantics":"count","maxLen":-3}`,
		`{"query":"tram"} garbage`,
		`{"query":"tram"}{"query":"(("}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		// A fresh engine per input keeps the plan cache from accumulating
		// one compiled plan per fuzzed query string across the run.
		h := NewHandler(New(buildFixture(), Options{ResultCacheCap: 8}))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusUnprocessableEntity, http.StatusGatewayTimeout, 499:
		default:
			t.Fatalf("unexpected status %d for %q", rr.Code, body)
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("non-JSON response for %q: %s", body, rr.Body.String())
		}
		if rr.Code != http.StatusOK {
			var env errorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("error response for %q lacks the envelope: %s", body, rr.Body.String())
			}
		}
	})
}
