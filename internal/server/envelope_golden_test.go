package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pathquery/internal/engine"
)

// TestErrorEnvelopeGolden pins the exact bytes of the server's error
// answers: status, Content-Type, Retry-After, Allow and body, with a
// fixed X-Request-ID. The bodies keep encoding/json's HTML escaping
// (& is \u0026).
func TestErrorEnvelopeGolden(t *testing.T) {
	s := newServer(t, Options{MaxTenants: 2, MutateRate: 0.0001, MutateBurst: 1, MaxInFlight: 1, QueueDepth: -1})
	h := s.Handler()
	big := `{"query":"` + strings.Repeat("a", engine.MaxBodyBytes) + `"}`
	const jsonCT = "application/json"
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		contentType  string
		retryAfter   string
		allow        string
		want         string
	}{
		{"not_ready", "GET", "/readyz", "", 503, jsonCT, "1", "",
			`{"error":{"code":"not_ready","message":"tenant recovery in progress","request_id":"golden-1"}}` + "\n"},
		{"create g", "POST", "/v1/graphs/g/mutate", mutateBody("u", "x", "v"), 200, jsonCT, "", "",
			`{"epoch":2,"nodes":2,"edges":1}` + "\n"},
		{"body_too_large creating", "POST", "/v1/graphs/ghost/mutate", big, 413, jsonCT, "", "",
			`{"error":{"code":"body_too_large","message":"request body exceeds 8388608 bytes","request_id":"golden-1"}}` + "\n"},
		{"create h", "POST", "/v1/graphs/h/mutate", mutateBody("p", "y", "q"), 200, jsonCT, "", "",
			`{"epoch":2,"nodes":2,"edges":1}` + "\n"},
		{"bad_graph_name", "POST", "/v1/graphs/a&b/query", `{"query":"x"}`, 400, jsonCT, "", "",
			`{"error":{"code":"bad_graph_name","message":"invalid graph name \"a\u0026b\"","request_id":"golden-1"}}` + "\n"},
		{"unknown_graph", "POST", "/v1/graphs/nope/query", `{"query":"x"}`, 404, jsonCT, "", "",
			`{"error":{"code":"unknown_graph","message":"no graph \"nope\" (a mutate creates it)","request_id":"golden-1"}}` + "\n"},
		{"not_found", "POST", "/v1/graphs/g/frobnicate", `{}`, 404, jsonCT, "", "",
			`{"error":{"code":"not_found","message":"no such operation \"frobnicate\"","request_id":"golden-1"}}` + "\n"},
		{"rate_limited", "POST", "/v1/graphs/g/mutate", mutateBody("v", "x", "w"), 429, jsonCT, "10000", "",
			`{"error":{"code":"rate_limited","message":"graph \"g\" mutation rate limit exceeded","request_id":"golden-1"}}` + "\n"},
		{"tenant_limit", "POST", "/v1/graphs/g3/mutate", mutateBody("u", "x", "v"), 503, jsonCT, "", "",
			`{"error":{"code":"tenant_limit","message":"tenant limit 2 reached; graph \"g3\" not created","request_id":"golden-1"}}` + "\n"},
		{"body_too_large existing", "POST", "/v1/graphs/h/query", big, 413, jsonCT, "", "",
			`{"error":{"code":"body_too_large","message":"request body exceeds 8388608 bytes","request_id":"golden-1"}}` + "\n"},
		{"parse_error", "POST", "/v1/graphs/g/query", `{"query":"x·"}`, 400, jsonCT, "", "",
			`{"error":{"code":"parse_error","message":"regex: expected atom at offset 3 in \"x·\"","request_id":"golden-1"}}` + "\n"},
		{"method_not_allowed", "GET", "/v1/graphs/g/query", "", 405, "text/plain; charset=utf-8", "", "POST",
			"Method Not Allowed\n"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		req.Header.Set("X-Request-ID", "golden-1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		hd := rec.Header()
		if rec.Code != c.status || hd.Get("Content-Type") != c.contentType ||
			hd.Get("Retry-After") != c.retryAfter || hd.Get("Allow") != c.allow || rec.Body.String() != c.want {
			t.Errorf("%s: got %d %q Retry-After=%q Allow=%q body %q\nwant %d %q Retry-After=%q Allow=%q body %q",
				c.name, rec.Code, hd.Get("Content-Type"), hd.Get("Retry-After"), hd.Get("Allow"), rec.Body.String(),
				c.status, c.contentType, c.retryAfter, c.allow, c.want)
		}
	}

	// An overloaded tenant: its only in-flight slot is held from outside.
	tn := s.tenantFor("h")
	tn.gate.slots <- struct{}{}
	defer func() { <-tn.gate.slots }()
	req := httptest.NewRequest("POST", "/v1/graphs/h/query", strings.NewReader(`{"query":"y"}`))
	req.Header.Set("X-Request-ID", "golden-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	want := `{"error":{"code":"overloaded","message":"graph \"h\" has no in-flight or queue capacity left","request_id":"golden-1"}}` + "\n"
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Content-Type") != jsonCT ||
		rec.Header().Get("Retry-After") != "1" || rec.Body.String() != want {
		t.Errorf("overloaded: got %d %q Retry-After=%q body %q", rec.Code,
			rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Body.String())
	}
}
