package main

import (
	"fmt"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
)

// Closed-loop serving benchmark: build a synthetic graph, stand up the
// engine in-process, and drive it with concurrent closed-loop clients
// mixing cached repeat selections with mutations that publish new epochs.
// Reports throughput and latency percentiles; BenchmarkEngineServe in
// bench_test.go runs the scaled-down version of the same driver so the
// numbers land in the BENCH_<date>.json snapshots.

func runServeBench() error {
	g := datasets.Synthetic(*serveSyn, *seed)
	qs := datasets.SynQueriesOn(g.Snapshot())
	queries := make([]string, len(qs))
	for i, nq := range qs {
		queries[i] = nq.Expr
	}
	e := engine.New(g, engine.Options{})

	section(fmt.Sprintf("Serving benchmark — %d nodes, %d clients, %d writer lanes, %v, mutate every %d requests, rate %.2g",
		*serveSyn, *serveClients, *serveWriters, *serveDuration, *serveMutateEvery, *serveMutateRate))
	for _, q := range queries {
		fmt.Printf("query: %s\n", q)
	}

	report, err := engine.RunLoad(e, engine.LoadConfig{
		Clients:     *serveClients,
		Duration:    *serveDuration,
		Queries:     queries,
		MutateEvery: *serveMutateEvery,
		MutateRate:  *serveMutateRate,
		BatchSize:   *serveBatch,
		Writers:     *serveWriters,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(report)
	if report.MutateLatency.Count() > 0 {
		fmt.Printf("mutate p90 %v  max %v   (select max %v)\n",
			report.MutateLatency.Quantile(0.90),
			time.Duration(report.MutateLatency.Max),
			time.Duration(report.SelectLatency.Max))
	}

	st := e.Stats()
	fmt.Printf("epochs published %d   plans %d (hits %d, misses %d)\n",
		st.Epoch, st.Plans, st.PlanHits, st.PlanMisses)
	fmt.Printf("result cache: hits %d, misses %d, single-flight shared %d, entries %d\n",
		st.ResultHits, st.ResultMisses, st.ResultShared, st.ResultEntries)
	if total := st.ResultHits + st.ResultMisses + st.ResultShared; total > 0 {
		fmt.Printf("cache hit ratio %.1f%% (product passes avoided: %d)\n",
			100*float64(st.ResultHits+st.ResultShared)/float64(total),
			st.ResultHits+st.ResultShared)
	}
	fmt.Printf("revalidation outcomes: retained %d, regrown %d, dropped %d\n",
		st.ResultRetained, st.ResultRegrown, st.ResultDropped)
	return nil
}
