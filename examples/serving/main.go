// Serving: drive the concurrent query-serving engine through its
// per-graph HTTP API — the surface cmd/pqserve mounts under
// /v1/graphs/{name}/, served here at the root. The example stands the
// handler up on a loopback listener, then walks the serving lifecycle
// on the unified /v1/query protocol: one endpoint, five result shapes
// (nodes, pairsFrom, witness, count, shortest), a batch sharing one
// epoch, a mutation publishing a new epoch that invalidates the cached
// answer, learning, and the structured error envelope.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"pathquery"
)

func main() {
	g := pathquery.NewGraph(nil)
	for _, e := range [][3]string{
		{"N1", "tram", "N4"},
		{"N2", "bus", "N1"},
		{"N4", "cinema", "C1"},
		{"N6", "cinema", "C2"},
		{"N6", "bus", "N5"},
		{"N5", "tram", "N3"},
	} {
		g.AddEdgeByName(e[0], e[1], e[2])
	}

	engine := pathquery.NewEngine(g, pathquery.EngineOptions{})
	srv := httptest.NewServer(pathquery.NewEngineHandler(engine))
	defer srv.Close()
	fmt.Println("per-graph API (pqserve's /v1/graphs/{name}/) listening on", srv.URL)

	// Cold query: compiles the plan, runs one product pass, caches both.
	ans := post(srv.URL+"/v1/query", `{"query": "(tram+bus)*·cinema"}`)
	fmt.Printf("nodes    -> epoch %v, nodes %v, cached %v\n",
		ans["epoch"], ans["nodes"], ans["cached"])

	// Repeat — even as a syntactic variant — is served from the caches.
	ans = post(srv.URL+"/v1/query", `{"query": "(bus+tram)*.cinema"}`)
	fmt.Printf("variant  -> epoch %v, nodes %v, cached %v\n",
		ans["epoch"], ans["nodes"], ans["cached"])

	// The same endpoint serves every result shape: witness returns one
	// reconstructed accepting path per selected node...
	ans = post(srv.URL+"/v1/query", `{"query": "(tram+bus)*·cinema", "semantics": "witness", "limit": 2}`)
	fmt.Printf("witness  -> count %v, paths %v\n", ans["count"], ans["paths"])

	// ...count the distinct accepting path lengths per node...
	ans = post(srv.URL+"/v1/query", `{"query": "(tram+bus)*·cinema", "semantics": "count"}`)
	fmt.Printf("count    -> %v\n", ans["counts"])

	// ...and shortest the shortest pair witness from an anchor node.
	ans = post(srv.URL+"/v1/query", `{"query": "(tram+bus)*·cinema", "semantics": "shortest", "from": "N2"}`)
	fmt.Printf("shortest -> from N2: %v\n", ans["paths"])

	// A batch evaluates every request against one pinned epoch.
	batch := post(srv.URL+"/v1/batch",
		`{"requests": [{"query": "tram·cinema"}, {"query": "bus·tram", "semantics": "witness"}, {"query": "cinema"}]}`)
	fmt.Printf("batch of 3 -> shared epoch %v\n", batch["epoch"])

	// Errors answer the structured envelope {"error": {"code", "message"}}.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"query": "tram·cinema", "semantics": "fancy"}`)))
	if err != nil {
		log.Fatal(err)
	}
	var envelope map[string]any
	json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	fmt.Printf("bad semantics -> %d %v\n", resp.StatusCode, envelope["error"])

	// A mutation publishes a new epoch; the stale cached answer is gone.
	mut := post(srv.URL+"/mutate", `{"edges": [{"from": "N3", "label": "cinema", "to": "C3"}]}`)
	fmt.Printf("mutate N3 -cinema-> C3 -> epoch %v (%v nodes, %v edges)\n",
		mut["epoch"], mut["nodes"], mut["edges"])
	ans = post(srv.URL+"/v1/query", `{"query": "(tram+bus)*·cinema"}`)
	fmt.Printf("after mutation -> epoch %v, nodes %v, cached %v\n",
		ans["epoch"], ans["nodes"], ans["cached"])

	// The learner is a service of the same engine: /learn pins the served
	// epoch, runs Algorithm 1 on it, and installs the learned query as a
	// serving plan — the returned expression answers /v1/query from the
	// warmed caches immediately.
	learned := post(srv.URL+"/learn", `{"pos": ["N2"], "neg": ["N5"]}`)
	fmt.Printf("learn +N2 -N5 -> query %v (k=%v, SCPs %v), selects %v\n",
		learned["query"], learned["k"], learned["scps"],
		learned["selection"].(map[string]any)["nodes"])
	q, _ := json.Marshal(map[string]any{"query": learned["query"]})
	ans = post(srv.URL+"/v1/query", string(q))
	fmt.Printf("learned query -> epoch %v, nodes %v, cached %v\n",
		ans["epoch"], ans["nodes"], ans["cached"])

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats pathquery.EngineStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: epoch %d, %d queries over %d plans (plan hits %d), "+
		"result hits %d, misses %d\n",
		stats.Epoch, stats.Queries, stats.Plans, stats.PlanHits,
		stats.ResultHits, stats.ResultMisses)
}

func post(url, body string) map[string]any {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %v", url, out)
	}
	return out
}
