package engine

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"pathquery/internal/graph"
)

// hostileNames are node names covering every branch of JSON string
// escaping with HTML escaping off: quote, backslash, a bare control byte,
// the short escapes, HTML metacharacters (passed through), U+2028/U+2029,
// invalid UTF-8, multi-byte runes, and DEL (passed through).
var hostileNames = []string{
	`q"uote`,
	`back\slash`,
	"ctl\x01",
	"ws\n\t\r\b\f",
	"<html>&",
	"ls\u2028ps\u2029",
	"bad\xffutf8",
	"é😀",
	"del\x7f",
}

// buildHostileFixture links hostileNames into an "a" ring (node i is
// hostileNames[i]) plus the "b" chain 0 → 4 → 8.
func buildHostileFixture() *graph.Graph {
	g := graph.New(nil)
	for i, name := range hostileNames {
		g.AddEdgeByName(name, "a", hostileNames[(i+1)%len(hostileNames)])
	}
	g.AddEdgeByName(hostileNames[0], "b", hostileNames[4])
	g.AddEdgeByName(hostileNames[4], "b", hostileNames[8])
	return g
}

// traceTimings masks the only nondeterministic bytes of a ?trace=1 body.
var traceTimings = regexp.MustCompile(`"(total_ns|ns)":[0-9]+`)

// TestV1WireGolden pins the exact response bytes (trailing newline
// included) of every answer-rendering route over hostile node names:
// each semantics, limits on fresh and cached entries, retained and
// regrown entries, batches, /learn, ?trace=1, and one error envelope.
// The steps share one engine and run in order, so "cached" is part of
// what is pinned.
func TestV1WireGolden(t *testing.T) {
	h := NewHandler(New(buildHostileFixture(), Options{}))
	steps := []struct {
		name   string
		path   string
		body   string
		status int
		want   string
	}{
		{
			name: "nodes uncached",
			path: "/v1/query",
			body: `{"query":"a"}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":9,\"cached\":false,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\",\"ctl\\u0001\",\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"ls\\u2028ps\\u2029\",\"bad\\ufffdutf8\",\"é😀\",\"del\x7f\"]}\n",
		},
		{
			name: "nodes cached",
			path: "/v1/query",
			body: `{"query":"a"}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":9,\"cached\":true,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\",\"ctl\\u0001\",\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"ls\\u2028ps\\u2029\",\"bad\\ufffdutf8\",\"é😀\",\"del\x7f\"]}\n",
		},
		{
			name: "limit below the row count, fresh entry",
			path: "/v1/query",
			body: `{"query":"a·a","limit":3}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":9,\"cached\":false,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\",\"ctl\\u0001\"]}\n",
		},
		{
			name: "limit below the row count, cached entry",
			path: "/v1/query",
			body: `{"query":"a","limit":2}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":9,\"cached\":true,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\"]}\n",
		},
		{
			name: "limit above the row count",
			path: "/v1/query",
			body: `{"query":"a","limit":50}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":9,\"cached\":true,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\",\"ctl\\u0001\",\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"ls\\u2028ps\\u2029\",\"bad\\ufffdutf8\",\"é😀\",\"del\x7f\"]}\n",
		},
		{
			name: "pairsFrom with a limit",
			path: "/v1/query",
			body: `{"query":"a*","semantics":"pairsFrom","from":"q\"uote","limit":4}`,
			want: "{\"epoch\":1,\"semantics\":\"pairsFrom\",\"count\":9,\"cached\":false,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\",\"ctl\\u0001\",\"ws\\n\\t\\r\\b\\f\"]}\n",
		},
		{
			name: "witness",
			path: "/v1/query",
			body: `{"query":"a·b","semantics":"witness"}`,
			want: "{\"epoch\":1,\"semantics\":\"witness\",\"count\":2,\"cached\":false,\"paths\":[{\"nodes\":[\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"del\x7f\"],\"word\":\"a·b\"},{\"nodes\":[\"del\x7f\",\"q\\\"uote\",\"<html>&\"],\"word\":\"a·b\"}]}\n",
		},
		{
			name: "witness with a limit",
			path: "/v1/query",
			body: `{"query":"a·b","semantics":"witness","limit":1}`,
			want: "{\"epoch\":1,\"semantics\":\"witness\",\"count\":2,\"cached\":false,\"paths\":[{\"nodes\":[\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"del\x7f\"],\"word\":\"a·b\"}]}\n",
		},
		{
			name: "count with a limit",
			path: "/v1/query",
			body: `{"query":"a*·b","semantics":"count","maxLen":5,"limit":2}`,
			want: "{\"epoch\":1,\"semantics\":\"count\",\"count\":9,\"cached\":false,\"counts\":[{\"node\":\"q\\\"uote\",\"count\":2},{\"node\":\"back\\\\slash\",\"count\":1}]}\n",
		},
		{
			name: "shortest with from",
			path: "/v1/query",
			body: `{"query":"a*·b","semantics":"shortest","from":"ws\n\t\r\b\f"}`,
			want: "{\"epoch\":1,\"semantics\":\"shortest\",\"count\":2,\"cached\":false,\"paths\":[{\"nodes\":[\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"ls\\u2028ps\\u2029\",\"bad\\ufffdutf8\",\"é😀\",\"del\x7f\",\"q\\\"uote\",\"<html>&\"],\"word\":\"a·a·a·a·a·a·b\"},{\"nodes\":[\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"del\x7f\"],\"word\":\"a·b\"}]}\n",
		},
		{
			name: "shortest without from, sharing the witness entry",
			path: "/v1/query",
			body: `{"query":"a·b","semantics":"shortest"}`,
			want: "{\"epoch\":1,\"semantics\":\"shortest\",\"count\":2,\"cached\":true,\"paths\":[{\"nodes\":[\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"del\x7f\"],\"word\":\"a·b\"},{\"nodes\":[\"del\x7f\",\"q\\\"uote\",\"<html>&\"],\"word\":\"a·b\"}]}\n",
		},
		{
			name: "empty selection",
			path: "/v1/query",
			body: `{"query":"b·b·b"}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":0,\"cached\":false}\n",
		},
		{
			name: "learn",
			path: "/learn",
			body: `{"pos":["q\"uote","<html>&"],"neg":["é😀"]}`,
			want: "{\"epoch\":1,\"query\":\"b\",\"key\":\"2s0f1,t0.1.1;\",\"k\":2,\"scps\":[\"b\",\"b\"],\"selection\":{\"epoch\":1,\"semantics\":\"nodes\",\"count\":2,\"cached\":false,\"nodes\":[\"q\\\"uote\",\"<html>&\"]}}\n",
		},
		{
			name: "learn with a limit",
			path: "/learn",
			body: `{"pos":["q\"uote","<html>&"],"neg":["é😀"],"limit":1}`,
			want: "{\"epoch\":1,\"query\":\"b\",\"key\":\"2s0f1,t0.1.1;\",\"k\":2,\"scps\":[\"b\",\"b\"],\"selection\":{\"epoch\":1,\"semantics\":\"nodes\",\"count\":2,\"cached\":true,\"nodes\":[\"q\\\"uote\"]}}\n",
		},
		{
			name: "batch of two",
			path: "/v1/batch",
			body: `{"requests":[{"query":"b","limit":1},{"query":"a·b","semantics":"witness","limit":1}]}`,
			want: "{\"epoch\":1,\"answers\":[{\"epoch\":1,\"semantics\":\"nodes\",\"count\":2,\"cached\":true,\"nodes\":[\"q\\\"uote\"]},{\"epoch\":1,\"semantics\":\"witness\",\"count\":2,\"cached\":true,\"paths\":[{\"nodes\":[\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"del\x7f\"],\"word\":\"a·b\"}]}]}\n",
		},
		{
			name: "empty batch",
			path: "/v1/batch",
			body: `{"requests":[]}`,
			want: "{\"epoch\":1,\"answers\":[]}\n",
		},
		{
			name: "trace, fresh entry",
			path: "/v1/query?trace=1",
			body: `{"query":"b·a"}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":2,\"cached\":false,\"nodes\":[\"q\\\"uote\",\"<html>&\"],\"trace\":{\"total_ns\":N,\"spans\":[{\"name\":\"compile\",\"ns\":N},{\"name\":\"cache_lookup\",\"ns\":N},{\"name\":\"traverse\",\"ns\":N}]}}\n",
		},
		{
			name: "trace, cached entry",
			path: "/v1/query?trace=1",
			body: `{"query":"b·a","limit":1}`,
			want: "{\"epoch\":1,\"semantics\":\"nodes\",\"count\":2,\"cached\":true,\"nodes\":[\"q\\\"uote\"],\"trace\":{\"total_ns\":N,\"spans\":[{\"name\":\"compile\",\"ns\":N},{\"name\":\"cache_lookup\",\"ns\":N}]}}\n",
		},
		{
			name:   "unknown node error envelope",
			path:   "/v1/query",
			body:   `{"query":"a","semantics":"pairsFrom","from":"<nope>"}`,
			status: 404,
			want:   "{\"error\":{\"code\":\"unknown_node\",\"message\":\"engine: no node \\\"\\u003cnope\\u003e\\\" in epoch 1\"}}\n",
		},
		{
			name: "publish on a label no plan mentions",
			path: "/mutate",
			body: `{"edges":[{"from":"<html>&","label":"z","to":"del\u007f"}]}`,
			want: "{\"epoch\":2,\"nodes\":9,\"edges\":12}\n",
		},
		{
			name: "retained entry",
			path: "/v1/query",
			body: `{"query":"a","limit":2}`,
			want: "{\"epoch\":2,\"semantics\":\"nodes\",\"count\":9,\"cached\":true,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\"]}\n",
		},
		{
			name: "publish growing the selection",
			path: "/mutate",
			body: `{"edges":[{"from":"new\"node","label":"a","to":"é😀"}]}`,
			want: "{\"epoch\":3,\"nodes\":10,\"edges\":13}\n",
		},
		{
			name: "regrown entry",
			path: "/v1/query",
			body: `{"query":"a"}`,
			want: "{\"epoch\":3,\"semantics\":\"nodes\",\"count\":10,\"cached\":true,\"nodes\":[\"q\\\"uote\",\"back\\\\slash\",\"ctl\\u0001\",\"ws\\n\\t\\r\\b\\f\",\"<html>&\",\"ls\\u2028ps\\u2029\",\"bad\\ufffdutf8\",\"é😀\",\"del\x7f\",\"new\\\"node\"]}\n",
		},
	}
	for _, st := range steps {
		status := st.status
		if status == 0 {
			status = http.StatusOK
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", st.path, strings.NewReader(st.body)))
		got := traceTimings.ReplaceAllString(rr.Body.String(), `"$1":N`)
		if rr.Code != status || got != st.want {
			t.Errorf("%s: status %d, want %d\n got: %q\nwant: %q", st.name, rr.Code, status, got, st.want)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", st.name, ct)
		}
	}
}
