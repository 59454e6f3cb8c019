package server

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"pathquery/internal/engine"
	"pathquery/internal/graph"
)

// TestInMemoryTenant serves an engine through a server without a data
// directory: every operation answers under /v1/graphs/default/, nothing
// touches disk, and an unknown name cannot be created.
func TestInMemoryTenant(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir) // a stray relative write would land here
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := graph.New(nil)
	g.AddEdgeByName("u", "x", "v")
	g.AddEdgeByName("w", "y", "z")
	if err := s.AddEngine("default", engine.New(g, engine.Options{})); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	s.RecoverAll()
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d %s", rec.Code, rec.Body)
	}

	for _, c := range []struct{ method, op, body string }{
		{"POST", "query", `{"query":"x"}`},
		{"POST", "batch", `{"requests":[{"query":"x"},{"query":"y"}]}`},
		{"POST", "mutate", mutateBody("v", "x", "w")},
		{"POST", "learn", `{"pos":["u"],"neg":["z"]}`},
		{"GET", "plans", ""},
		{"GET", "stats", ""},
	} {
		rec := do(t, h, c.method, "/v1/graphs/default/"+c.op, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.method, c.op, rec.Code, rec.Body)
		}
		if c.op != "stats" {
			continue
		}
		var st map[string]json.RawMessage
		decodeInto(t, rec, &st)
		if _, ok := st["store"]; ok {
			t.Fatalf("in-memory stats carry a store block: %s", rec.Body)
		}
		if string(st["epoch"]) != "2" || st["admission"] == nil {
			t.Fatalf("in-memory stats: %s", rec.Body)
		}
	}
	metrics := do(t, h, "GET", "/metrics", "").Body.String()
	if want := `pathquery_requests_total{code="200",op="query",tenant="default"} 1`; !strings.Contains(metrics, want) {
		t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
	}

	// Creating a graph needs a data directory.
	rec := do(t, h, "POST", "/v1/graphs/other/mutate", mutateBody("a", "x", "b"))
	if rec.Code != http.StatusNotFound || errCode(t, rec) != "unknown_graph" {
		t.Fatalf("mutate to an unknown in-memory name: %d %s", rec.Code, rec.Body)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("in-memory server wrote to disk: %v %v", ents, err)
	}
	var list struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	decodeInto(t, do(t, h, "GET", "/v1/graphs", ""), &list)
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "default" {
		t.Fatalf("listing: %+v", list)
	}

	for _, name := range []string{"default", "../x", ""} {
		if err := s.AddEngine(name, engine.New(graph.New(nil), engine.Options{})); err == nil {
			t.Fatalf("AddEngine(%q) succeeded", name)
		}
	}
}
