// Command pqworkload generates benchmark workloads of regular-expression
// path queries for a graph — the paper's Section 6 future-work item
// ("develop a benchmark devoted to queries defined by regular
// expressions").
//
// Suite mode (the original surface) instantiates the shape families and
// calibrates them into selectivity bands, reporting the structural and
// learning-difficulty measures benchmark consumers need:
//
//	pqworkload -graph g.tsv
//	pqworkload -graph g.tsv -shapes chain,abstar-c -csv out.csv
//
// Forge mode (-out) runs the PathForge three-tier generator — abstract
// classes AQ1–AQ28 → label-instantiated templates → node-anchored real
// queries — and records the result as a versioned workload file that
// `pqbench -replay` can drive deterministically:
//
//	pqworkload -out w.ndjson -seed 7
//	pqworkload -graph g.tsv -out w.ndjson -seed 7 -anchors 4
//	pqworkload -synthetic 300 -seed 7 -out w.ndjson -classes AQ1,AQ7,AQ27
//
// Forging is deterministic: the same graph, seed and parameters always
// produce a byte-identical file. Without -graph the workload is forged
// over the same synthetic scale-free graph `pqserve -synthetic N -seed S`
// serves, so a forged file replays against a matching live server.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqworkload: ")
	graphPath := flag.String("graph", "", "graph TSV file (default: a synthetic scale-free graph)")
	synthetic := flag.Int("synthetic", 1000, "synthetic graph size when -graph is not given")
	shapeList := flag.String("shapes", "", "suite mode: comma-separated shapes (default: all)")
	csvPath := flag.String("csv", "", "suite mode: also write CSV here")
	outPath := flag.String("out", "", "forge mode: write a replayable workload file here")
	seed := flag.Int64("seed", 1, "forge + synthetic-graph seed")
	classList := flag.String("classes", "", "forge mode: comma-separated AQ classes (default: all 28)")
	templates := flag.Int("templates", 2, "forge mode: template instantiations per class")
	anchors := flag.Int("anchors", 2, "forge mode: anchored real queries per template (-1: none)")
	topDegree := flag.Int("topdegree", 64, "forge mode: anchor candidate pool size per first-symbol class")
	flag.Parse()

	var g *graph.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			log.Fatal(err)
		}
		var rerr error
		g, rerr = graph.ReadTSV(f, nil)
		f.Close()
		if rerr != nil {
			log.Fatal(rerr)
		}
	} else if *outPath != "" {
		g = datasets.Synthetic(*synthetic, *seed)
	} else {
		flag.Usage()
		os.Exit(2)
	}

	if *outPath != "" {
		forge(g.Snapshot(), *outPath, *seed, *classList, *templates, *anchors, *topDegree)
		return
	}

	shapes := workload.AllShapes
	if *shapeList != "" {
		shapes = nil
		for _, s := range strings.Split(*shapeList, ",") {
			shapes = append(shapes, workload.Shape(strings.TrimSpace(s)))
		}
	}
	suite := workload.Suite(g.Snapshot(), shapes, workload.DefaultBands)
	fmt.Printf("workload for %v — %d queries\n", g, len(suite))
	workload.Print(os.Stdout, suite)

	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Close()
		if err := workload.WriteCSV(out, suite); err != nil {
			log.Fatal(err)
		}
	}
}

func forge(snap *graph.Snapshot, outPath string, seed int64, classList string, templates, anchors, topDegree int) {
	cfg := workload.ForgeConfig{
		Seed:               seed,
		TemplatesPerClass:  templates,
		AnchorsPerTemplate: anchors,
		TopDegree:          topDegree,
	}
	if anchors == 0 {
		cfg.AnchorsPerTemplate = -1 // flag 0 means "none"; config 0 means default
	}
	if classList != "" {
		for _, c := range strings.Split(classList, ",") {
			cfg.Classes = append(cfg.Classes, strings.TrimSpace(c))
		}
	}
	f, err := workload.Forge(snap, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := workload.WriteFile(outPath, f); err != nil {
		log.Fatal(err)
	}
	byTier := map[string]int{}
	classes := map[string]bool{}
	for _, e := range f.Entries {
		byTier[e.Tier]++
		classes[e.Class] = true
	}
	fmt.Printf("forged %d entries (%d template, %d real) across %d classes into %s\n",
		len(f.Entries), byTier[workload.TierTemplate], byTier[workload.TierReal], len(classes), outPath)
	fmt.Printf("graph %s (%d nodes, %d edges, %d labels)  seed %d\n",
		f.Header.Graph.Fingerprint, f.Header.Graph.Nodes, f.Header.Graph.Edges, f.Header.Graph.Labels, seed)
}
