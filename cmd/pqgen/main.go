// Command pqgen generates the paper's evaluation datasets as TSV graphs.
//
//	pqgen -dataset alibaba                  # the 3k/8k AliBaba stand-in
//	pqgen -dataset scalefree -nodes 10000   # synthetic, |E| = 3·|V|
//
// With -queries it also prints the workload queries (bio1..bio6 or
// syn1..syn3) with their selectivities on the generated graph.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pathquery/internal/datasets"
	"pathquery/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqgen: ")
	dataset := flag.String("dataset", "alibaba", "alibaba | scalefree")
	nodes := flag.Int("nodes", 10000, "node count (scalefree)")
	edgesPerNode := flag.Int("edges-per-node", 3, "edge multiplier (scalefree)")
	labels := flag.Int("labels", 20, "label count (scalefree)")
	zipf := flag.Float64("zipf", 1.0, "label Zipf exponent (scalefree)")
	seed := flag.Int64("seed", 1, "generator seed (scalefree)")
	out := flag.String("o", "", "output file (default stdout)")
	withQueries := flag.Bool("queries", false, "print the workload queries to stderr")
	withStats := flag.Bool("stats", false, "print structural statistics to stderr")
	flag.Parse()

	var g *graph.Graph
	var queries []datasets.NamedQuery
	switch *dataset {
	case "alibaba":
		g = datasets.AliBaba()
		if *withQueries {
			queries = datasets.BioQueries(g.Snapshot())
		}
	case "scalefree":
		g = datasets.ScaleFree(datasets.ScaleFreeConfig{
			Nodes:  *nodes,
			Edges:  *edgesPerNode * *nodes,
			Labels: *labels,
			ZipfS:  *zipf,
			Seed:   *seed,
		})
		if *withQueries {
			queries = datasets.SynQueriesOn(g.Snapshot())
		}
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	snap := g.Snapshot()
	if err := snap.WriteTSV(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %v\n", g)
	if *withStats {
		snap.ComputeStats().Print(os.Stderr)
	}
	for _, nq := range queries {
		fmt.Fprintf(os.Stderr, "%s\tselectivity %.4f%%\t%s\n",
			nq.Name, 100*nq.Query.Evaluate(snap).Selectivity(), nq.Expr)
	}
}
