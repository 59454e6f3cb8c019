// Command pqbench regenerates the paper's evaluation artifacts
// (Section 5): Table 1, Figures 11 and 12 (static F1 and learning time),
// Table 2 (interactive summary), and the ablations called out in the text.
//
//	pqbench -table1
//	pqbench -static-bio          # Figures 11(a) + 12(a)
//	pqbench -static-syn          # Figures 11(b,c,d) + 12(b,c,d)
//	pqbench -table2-bio -table2-syn
//	pqbench -ablation -theorem
//	pqbench -all -quick          # everything, scaled down
//	pqbench -snapshot            # go-bench snapshot into BENCH_<date>.json
//	pqbench -restart             # crash-recovery timings into BENCH_<date>.json
//	pqbench -serve               # closed loop over syn1..syn3
//	pqbench -replay w.ndjson     # closed loop over a pqworkload file
//
// -quick shrinks trial counts, fraction grids, synthetic sizes, and
// interaction budgets so the full suite finishes in minutes; without it
// the parameters match the paper's. -csv DIR additionally writes
// machine-readable series for plotting.
//
// -snapshot runs the repository's substrate go-benchmarks (via `go test
// -bench`, so it must be invoked inside the module) and records the
// parsed results as BENCH_<date>.json, tracking the perf trajectory
// PR-over-PR; -snapshot-bench overrides the benchmark pattern,
// -snapshot-out the file name, and -snapshot-note attaches free-form
// context (e.g. the baseline being compared against).
//
// -serve and -replay run the one closed-loop load driver
// (internal/loadgen) and differ only in where the read mix comes from:
// -serve calibrates syn1..syn3 on a -serve-syn node synthetic graph and
// draws them uniformly, -replay reads a pqworkload file (-replay-mix
// skews its classes, -replay-anchored filters its tiers). Both share the
// client flags: -clients, -duration, -requests (a fixed count per client
// instead of a duration), -mutate-rate, and -addr, which drives one graph
// of a live server (its /v1/graphs/{name} base URL) instead of an
// in-process engine. Both print the run's report and its per-class
// latency table.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pathquery/internal/charsample"
	"pathquery/internal/datasets"
	"pathquery/internal/experiments"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/query"
	"pathquery/internal/sampling"
)

var (
	quick     = flag.Bool("quick", false, "scaled-down parameters")
	all       = flag.Bool("all", false, "run every experiment")
	table1    = flag.Bool("table1", false, "Table 1: bio query selectivities")
	staticBio = flag.Bool("static-bio", false, "Figures 11(a)/12(a): static F1 and time, bio queries")
	staticSyn = flag.Bool("static-syn", false, "Figures 11(b-d)/12(b-d): static F1 and time, syn queries")
	table2Bio = flag.Bool("table2-bio", false, "Table 2, biological rows")
	table2Syn = flag.Bool("table2-syn", false, "Table 2, synthetic rows")
	ablation  = flag.Bool("ablation", false, "generalization + dynamic-k ablations")
	sampled   = flag.Bool("sampling", false, "sampled-session comparison (§6 future work)")
	theorem   = flag.Bool("theorem", false, "Theorem 3.5 self-check on the workload queries")
	csvDir    = flag.String("csv", "", "also write CSV series into this directory")
	seed      = flag.Int64("seed", 1, "experiment seed")
	trials    = flag.Int("trials", 0, "static trials per point (0: 3, or 1 with -quick)")
	capFlag   = flag.Int("cap", 0, "interactive interaction budget override (0: default)")
	baseline  = flag.Bool("static-baseline", false, "compute Table 2's 'without interactions' column even with -quick")
	synSize   = flag.Int("syn-size", 0, "run synthetic experiments on this single size only")

	snapshot      = flag.Bool("snapshot", false, "run go-benchmarks and write BENCH_<date>.json")
	snapshotBench = flag.String("snapshot-bench", "BenchmarkSelectMonadic$|BenchmarkSCPSearch$|BenchmarkLearnerPaperExample$|BenchmarkEngineServe|BenchmarkEngineMaintain|BenchmarkReplayMixed$|BenchmarkLearn$|BenchmarkMinimize$|BenchmarkEngineLearn$|BenchmarkPlanCompile|BenchmarkSelectBinaryDirectional|BenchmarkEvaluateWitness$|BenchmarkEvaluateCount$|BenchmarkStoreRecovery|BenchmarkWALAppend$|BenchmarkWALGroupCommit$|BenchmarkPublishIncremental$|BenchmarkPublishFull$|BenchmarkPublishCompact$",
		"benchmark pattern for -snapshot")
	snapshotOut   = flag.String("snapshot-out", "", "snapshot file name (default BENCH_<date>.json)")
	snapshotNote  = flag.String("snapshot-note", "", "free-form note stored in the snapshot")
	snapshotCount = flag.Int("snapshot-count", 1, "benchmark repetitions for -snapshot")

	restart = flag.Bool("restart", false,
		"crash-recovery scenario: run BenchmarkStoreRecovery (checkpoint load + WAL replay µs per 1k records) and write the snapshot")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqbench: ")
	flag.Parse()
	if *restart {
		// The restart scenario is a focused snapshot: just the recovery
		// benchmarks, recorded in the same BENCH_<date>.json format.
		*snapshotBench = "BenchmarkStoreRecovery"
		if *snapshotNote == "" {
			*snapshotNote = "pqbench -restart: crash-recovery (checkpoint load + WAL replay)"
		}
		if err := runSnapshot(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *snapshot {
		if err := runSnapshot(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *serve {
		if err := runServe(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *replayFile != "" {
		if err := runReplay(); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *all {
		*table1, *staticBio, *staticSyn, *table2Bio, *table2Syn, *ablation, *sampled, *theorem =
			true, true, true, true, true, true, true, true
	}
	if !(*table1 || *staticBio || *staticSyn || *table2Bio || *table2Syn || *ablation || *sampled || *theorem) {
		flag.Usage()
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	staticCfg := experiments.StaticConfig{Seed: *seed, Trials: *trials}
	if *quick {
		staticCfg.Fractions = []float64{0.01, 0.03, 0.07, 0.15}
		if staticCfg.Trials == 0 {
			staticCfg.Trials = 1
		}
	}

	synSizes := datasets.SyntheticSizes
	interactiveCap := 0 // |V|
	if *quick {
		synSizes = []int{10000}
		interactiveCap = 300
	}
	if *synSize > 0 {
		synSizes = []int{*synSize}
	}
	if *capFlag > 0 {
		interactiveCap = *capFlag
	}

	var bio *bioWorkload
	needBio := *table1 || *staticBio || *table2Bio || *ablation || *theorem
	if needBio {
		bio = loadBio()
	}

	if *table1 {
		section("Table 1 — biological queries and selectivities")
		rows := experiments.Table1(bio.snap, bio.queries)
		experiments.PrintTable1(os.Stdout, rows)
	}

	if *staticBio {
		section("Figures 11(a) + 12(a) — static protocol, biological queries")
		start := time.Now()
		series := experiments.RunStaticAll(bio.snap, bio.queries, staticCfg)
		experiments.PrintStaticSeries(os.Stdout, series)
		fmt.Printf("(%v)\n", time.Since(start).Round(time.Millisecond))
		writeCSV("fig11_12_bio.csv", func(f *os.File) error {
			return experiments.WriteStaticCSV(f, series)
		})
	}

	if *staticSyn {
		for _, n := range synSizes {
			section(fmt.Sprintf("Figures 11/12 (syn) — %d nodes", n))
			snap := datasets.Synthetic(n, int64(n)).Snapshot()
			qs := datasets.SynQueriesOn(snap)
			start := time.Now()
			series := experiments.RunStaticAll(snap, qs, staticCfg)
			experiments.PrintStaticSeries(os.Stdout, series)
			fmt.Printf("(%v)\n", time.Since(start).Round(time.Millisecond))
			writeCSV(fmt.Sprintf("fig11_12_syn_%d.csv", n), func(f *os.File) error {
				return experiments.WriteStaticCSV(f, series)
			})
		}
	}

	var table2Rows []experiments.InteractiveRow
	if *table2Bio {
		section("Table 2 — biological queries, interactive protocol")
		cfg := experiments.InteractiveConfig{
			Seed:            *seed,
			MaxInteractions: interactiveCap,
			StaticBaseline:  !*quick || *baseline,
			Static:          staticCfg,
		}
		for _, nq := range bio.queries {
			rows := experiments.RunInteractive("alibaba", bio.snap, nq, cfg)
			table2Rows = append(table2Rows, rows...)
			experiments.PrintTable2(os.Stdout, rows)
		}
	}

	if *table2Syn {
		for _, n := range synSizes {
			section(fmt.Sprintf("Table 2 — synthetic %d nodes, interactive protocol", n))
			snap := datasets.Synthetic(n, int64(n)).Snapshot()
			cfg := experiments.InteractiveConfig{
				Seed:            *seed,
				MaxInteractions: interactiveCap,
				StaticBaseline:  !*quick || *baseline,
				Static:          staticCfg,
			}
			if cfg.MaxInteractions == 0 && !*quick {
				// Full runs still need a sane bound on big graphs; the paper's
				// sessions stay well under 1% of nodes.
				cfg.MaxInteractions = snap.NumNodes() / 10
			}
			for _, nq := range datasets.SynQueriesOn(snap) {
				rows := experiments.RunInteractive(fmt.Sprintf("syn-%d", n), snap, nq, cfg)
				table2Rows = append(table2Rows, rows...)
				experiments.PrintTable2(os.Stdout, rows)
			}
		}
	}
	if len(table2Rows) > 0 {
		writeCSV("table2.csv", func(f *os.File) error {
			return experiments.WriteTable2CSV(f, table2Rows)
		})
	}

	if *ablation {
		section("Ablation — generalization phase contribution (§5.2)")
		fraction := 0.07
		rows := experiments.RunAblationGeneralization(bio.snap, bio.queries, fraction, staticCfg)
		experiments.PrintAblation(os.Stdout, rows)

		section("Ablation — dynamic-k distribution (§5.1)")
		series := experiments.RunStaticAll(bio.snap, bio.queries, staticCfg)
		dist := experiments.KDistribution(series)
		for k := 2; k <= 8; k++ {
			if dist[k] > 0 {
				fmt.Printf("k=%d: %d runs\n", k, dist[k])
			}
		}
	}

	if *sampled {
		section("Sampled interactive sessions (§6 future work) — kS vs sampled(kS)")
		n := 10000
		if *quick {
			n = 3000
		}
		if *synSize > 0 {
			n = *synSize
		}
		snap := datasets.Synthetic(n, int64(n)).Snapshot()
		goal := datasets.SynQueriesOn(snap)[2]
		sampleCfg := sampling.Config{TargetNodes: n / 10, Seed: *seed}
		strategies := []interactive.Strategy{
			interactive.KS{},
			sampling.Restrict{Base: interactive.KS{}, Sample: sampling.RandomWalk(snap, sampleCfg)},
			sampling.Restrict{Base: interactive.KS{}, Sample: sampling.ForestFire(snap, sampleCfg)},
		}
		cap := interactiveCap
		if cap == 0 {
			cap = 150
		}
		rows := experiments.RunInteractiveStrategies("syn-sampled", snap, goal, strategies,
			experiments.InteractiveConfig{Seed: *seed, MaxInteractions: cap})
		experiments.PrintTable2(os.Stdout, rows)
	}

	if *theorem {
		section("Theorem 3.5 self-check — characteristic samples identify the workload queries")
		alpha := bio.snap.Alphabet()
		for _, nq := range bio.queries {
			q := query.MustParse(alpha, nq.Expr)
			ok, err := charsample.Verify(q)
			status := "identified"
			if err != nil {
				status = "error: " + err.Error()
			} else if !ok {
				status = "NOT identified"
			}
			fmt.Printf("%s\t(canonical size %d, k=%d)\t%s\n",
				nq.Name, q.PrefixFree().Size(), charsample.KFor(q), status)
		}
	}
}

type bioWorkload struct {
	snap    *graph.Snapshot
	queries []datasets.NamedQuery
}

func loadBio() *bioWorkload {
	snap := datasets.AliBaba().Snapshot()
	return &bioWorkload{snap: snap, queries: datasets.BioQueries(snap)}
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func writeCSV(name string, write func(*os.File) error) {
	if *csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(*csvDir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
}
