// Command pqeval evaluates a path query on a graph database through the
// unified evaluation surface (query.EvaluateReq).
//
//	pqeval -graph g.tsv -query '(tram+bus)*·cinema' [-semantics witness] [-from N1]
//	pqeval -store /var/lib/pathquery/g1 -query 'a·b*'
//
// -store opens a durable graph directory written by pqserve -data
// (checkpoint + WAL, recovered exactly as the server would), so the
// serving state is queryable offline.
//
// -semantics picks the result shape: nodes (default, the paper's monadic
// semantics), pairsFrom (binary semantics from -from), witness (monadic
// selection with one reconstructed accepting path per node), count
// (distinct accepting path lengths per node up to -maxlen), or shortest
// (shortest witness per node, or per pair with -from). -timeout bounds
// the evaluation through context cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"pathquery"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqeval: ")
	graphPath := flag.String("graph", "", "graph TSV file")
	storePath := flag.String("store", "", "durable graph directory (pqserve -data tenant) instead of -graph")
	querySrc := flag.String("query", "", "regular expression")
	queryFile := flag.String("query-file", "", "saved query file (pqlearn -save)")
	semantics := flag.String("semantics", "", "nodes|pairsFrom|witness|count|shortest (default nodes)")
	from := flag.String("from", "", "anchor node for pairsFrom/shortest semantics")
	limit := flag.Int("limit", 0, "bound the witness paths computed (0 = all)")
	maxLen := flag.Int("maxlen", 0, "count semantics: max path length (0 = 2·|Q|+1)")
	timeout := flag.Duration("timeout", 0, "evaluation deadline (0 = none)")
	quiet := flag.Bool("quiet", false, "print only the summary line")
	flag.Parse()
	if (*graphPath == "") == (*storePath == "") || (*querySrc == "" && *queryFile == "") {
		flag.Usage()
		os.Exit(2)
	}

	var g *graph.Graph
	if *storePath != "" {
		st, err := store.Open(*storePath, store.Options{Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		g = st.Graph()
		stats := st.Stats()
		fmt.Printf("store: epoch %d (checkpoint %d, %d WAL records replayed in %v)\n",
			stats.Epoch, stats.CheckpointEpoch, stats.RecoveryReplayed, stats.RecoveryReplay)
	} else {
		f, err := os.Open(*graphPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if g, err = graph.ReadTSV(f, nil); err != nil {
			log.Fatal(err)
		}
	}
	var q *pathquery.Query
	if *queryFile != "" {
		qf, err := os.Open(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		loaded, err := query.Load(qf)
		qf.Close()
		if err != nil {
			log.Fatal(err)
		}
		q = loaded.Rebase(g.Alphabet())
	} else {
		parsed, err := pathquery.ParseQuery(g.Alphabet(), *querySrc)
		if err != nil {
			log.Fatal(err)
		}
		q = parsed
	}

	sem, err := query.ParseSemantics(*semantics)
	if err != nil {
		log.Fatal(err)
	}
	req := query.Req{Semantics: sem, Limit: *limit, MaxLen: *maxLen}
	// Compile the evaluation plan once and pin one epoch snapshot; the
	// whole evaluation runs the compiled form against the same CSR.
	pl := q.Plan()
	snap := g.Snapshot()
	if *from != "" {
		u, ok := g.NodeByName(*from)
		if !ok {
			log.Fatalf("no node %q", *from)
		}
		req.From, req.HasFrom = u, true
	}
	fmt.Printf("graph: %v\nquery: %v (size %d)\nplan: %d states, %s layout, compiled in %v\n",
		g, q, q.Size(), pl.NumStates, pl.Layout, pl.CompileTime)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	ans, _, err := q.EvaluateReq(ctx, snap, req)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if !*quiet {
		switch {
		case len(ans.Paths) > 0:
			for _, pw := range ans.Paths {
				fmt.Printf("%s", snap.NodeName(pw.Nodes[0]))
				for i, sym := range pw.Word {
					fmt.Printf(" -%s-> %s", g.Alphabet().Name(sym), snap.NodeName(pw.Nodes[i+1]))
				}
				fmt.Println()
			}
		case len(ans.Counts) > 0:
			for _, nc := range ans.Counts {
				fmt.Printf("%s\t%d\n", snap.NodeName(nc.Node), nc.Count)
			}
		default:
			for _, v := range ans.Nodes {
				fmt.Println(snap.NodeName(v))
			}
		}
	}
	if sem == query.SemanticsNodes {
		fmt.Printf("selected %d of %d nodes (selectivity %.4f%%) in %v\n",
			ans.Count, snap.NumNodes(), 100*float64(ans.Count)/float64(max(snap.NumNodes(), 1)), elapsed)
	} else {
		fmt.Printf("%s: %d matches in %v\n", sem, ans.Count, elapsed)
	}
}
