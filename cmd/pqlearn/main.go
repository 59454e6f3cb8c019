// Command pqlearn learns a path query from labeled node examples (the
// static protocol of the paper's Section 3).
//
//	pqlearn -graph g.tsv -pos N2,N6 -neg N5 [-k 3]
//	pqlearn -graph g.tsv -pos N2,N6 -neg N5 -serve :8080
//
// It prints the learned query, the smallest consistent paths it was built
// from, and the selected nodes. Exit status 1 with "abstain" means the
// examples were insufficient (the paper's null answer).
//
// With -serve ADDR the learned query is installed into a serving engine
// over the same graph, and the pqserve HTTP API comes up on ADDR with
// that engine as the in-memory graph "default": the printed query
// answers POST /v1/graphs/default/query from the warmed caches
// immediately, and /v1/graphs/default/learn accepts further samples —
// learn→serve parity with cmd/pqserve in one process.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"pathquery"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/server"
	"pathquery/internal/words"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqlearn: ")
	graphPath := flag.String("graph", "", "graph TSV file (required)")
	posList := flag.String("pos", "", "comma-separated positive node names (required)")
	negList := flag.String("neg", "", "comma-separated negative node names")
	k := flag.Int("k", 0, "SCP length bound; 0 = dynamic schedule (start 2)")
	maxK := flag.Int("maxk", 8, "dynamic schedule cap")
	noMerge := flag.Bool("no-generalization", false, "skip the merge phase (SCP disjunction only)")
	savePath := flag.String("save", "", "write the learned query to this file")
	serveAddr := flag.String("serve", "", "after learning, serve the graph and installed query on this address")
	flag.Parse()
	if *graphPath == "" || *posList == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadTSV(f, nil)
	if err != nil {
		log.Fatal(err)
	}

	nodes := func(list string) []pathquery.NodeID {
		if list == "" {
			return nil
		}
		var out []pathquery.NodeID
		for _, name := range strings.Split(list, ",") {
			id, ok := g.NodeByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("no node %q", name)
			}
			out = append(out, id)
		}
		return out
	}
	sample := pathquery.Sample{Pos: nodes(*posList), Neg: nodes(*negList)}

	snap := g.Snapshot()
	res, err := pathquery.LearnDetailed(snap, sample, pathquery.Options{
		K: *k, MaxK: *maxK, DisableGeneralization: *noMerge,
	})
	if errors.Is(err, pathquery.ErrAbstain) {
		fmt.Println("abstain: not enough examples to construct a consistent query")
		fmt.Println("hint: label more nodes, or raise -maxk")
		os.Exit(1)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned query: %v (size %d, k = %d)\n", res.Query, res.Query.Size(), res.K)
	for i, p := range res.SCPs {
		fmt.Printf("  SCP %d: %s\n", i+1, words.String(p, g.Alphabet()))
	}
	fmt.Println("selected nodes:")
	for _, v := range res.Query.Evaluate(snap).Nodes() {
		fmt.Println("  ", snap.NodeName(v))
	}
	if *savePath != "" {
		out, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Close()
		if err := query.Save(out, res.Query); err != nil {
			log.Fatal(err)
		}
		fmt.Println("saved to", *savePath)
	}
	if *serveAddr != "" {
		// Learn→serve parity with cmd/pqserve: install the learned query
		// into a serving engine over the same graph (re-learned through the
		// engine so the plan and result caches are warmed on the served
		// epoch) and serve it as pqserve serves an in-memory graph, /learn
		// included.
		eng := pathquery.NewEngine(g, pathquery.EngineOptions{})
		lr, err := eng.Learn(sample, pathquery.Options{
			K: *k, MaxK: *maxK, DisableGeneralization: *noMerge,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := server.New(server.Options{Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.AddEngine("default", eng); err != nil {
			log.Fatal(err)
		}
		srv.RecoverAll()
		log.Printf("serving graph \"default\" on %s: epoch %d, learned query %q installed (selects %d nodes)",
			*serveAddr, lr.Epoch, lr.Source, lr.Selection.Count)
		log.Fatal(http.ListenAndServe(*serveAddr, srv.Handler()))
	}
}
