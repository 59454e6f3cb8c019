package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pathquery/internal/telemetry"
)

// Closed-loop load driver: a fixed number of client goroutines issue
// requests back-to-back (each client waits for its response before
// sending the next — closed loop) through Engine.Evaluate, drawing
// queries uniformly, by per-query weight, or from a recorded replay
// workload, with optional mutations at a fixed period or rate. Used by
// `pqbench -serve` and by BenchmarkEngineServe/closedloop, which records
// throughput and tail latency into the BENCH_<date>.json snapshots.

// LoadConfig configures one closed-loop run.
type LoadConfig struct {
	// Clients is the number of concurrent closed-loop clients
	// (default 8).
	Clients int
	// Duration is how long to drive load (default 1s).
	Duration time.Duration
	// RequestsPerClient, when > 0, replaces the Duration cutoff: every
	// client issues exactly this many requests and stops. With a fixed
	// Seed the whole run is then a pure function of the config — the
	// deterministic mode the replay determinism tests pin. (Writer lanes
	// stay time-bounded by Duration.)
	RequestsPerClient int
	// Queries is the query mix; each request draws one uniformly, or
	// proportionally to Weights when those are set.
	Queries []string
	// Weights are optional per-query draw weights parallel to Queries.
	// A zero weight means that query is never drawn.
	Weights []float64
	// Replay replaces the Queries/Weights read mix with draws from a
	// recorded workload (see ReplaySpec). Mutation knobs still apply;
	// BatchSize is ignored under replay.
	Replay *ReplaySpec
	// MutateEvery makes every n-th request of each client a mutation
	// (0: read-only load).
	MutateEvery int
	// MutateRate makes each request a mutation with this probability
	// (0..1) — the mutation-rate axis of the closed-loop maintenance
	// benchmark. Composes with MutateEvery; either may be zero.
	MutateRate float64
	// MutateEdges generates the edges of the i-th mutation; nil uses a
	// default that links fresh load-generated nodes into the graph.
	MutateEdges func(i int) []EdgeSpec
	// BatchSize > 1 issues EvaluateBatch requests of that many queries
	// instead of single Evaluates.
	BatchSize int
	// Writers adds that many dedicated mutator lanes: free-running
	// goroutines issuing back-to-back mutations for the whole run, on
	// top of the Clients mix — the group-commit saturation axis
	// (`pqbench -serve-writers`).
	Writers int
	// Seed makes the query mix deterministic per client.
	Seed int64
}

// LoadReport summarizes a closed-loop run.
type LoadReport struct {
	Clients   int
	Requests  uint64 // selects + batches + mutations completed
	Selects   uint64
	Mutations uint64
	Duration  time.Duration

	// Throughput is completed requests per second.
	Throughput float64
	// Latency percentiles over all requests, estimated from the merged
	// class histograms (within one √2 bucket of exact).
	P50, P90, P99, Max time.Duration

	// SelectLatency and MutateLatency are the per-class latency
	// distributions the percentiles above merge — pqbench reports the
	// classes separately, since a mutation (WAL fsync included) and a
	// cached select live orders of magnitude apart.
	SelectLatency, MutateLatency telemetry.HistogramSnapshot

	// ClassLatency is the per-workload-class latency split of a replay
	// run (nil outside replay mode): one distribution per AQ class drawn,
	// keyed by ReplayEntry.Class. Per-class issue counts are the
	// snapshots' Count()s — with a fixed Seed and RequestsPerClient they
	// are identical across runs.
	ClassLatency map[string]telemetry.HistogramSnapshot

	// CachedLatency and UncachedLatency split SelectLatency by whether
	// the answer came from the result cache (retained or regrown entries
	// included) or a fresh product pass — the per-outcome view of the
	// maintenance closed loop. Single-select requests only; batch
	// requests mix outcomes per member and stay in SelectLatency.
	CachedLatency, UncachedLatency telemetry.HistogramSnapshot
	// Retained, Regrown, Dropped are the engine's result-cache
	// revalidation outcome deltas over the run.
	Retained, Regrown, Dropped uint64
	// Batches and BatchedMutations are the group-commit deltas over the
	// run: BatchedMutations/Batches is the mean coalescing factor.
	Batches, BatchedMutations uint64
}

// String renders the report as a one-stanza summary.
func (r LoadReport) String() string {
	return fmt.Sprintf(
		"clients %d  requests %d (selects %d, mutations %d)  wall %v\n"+
			"throughput %.0f req/s   latency p50 %v  p90 %v  p99 %v  max %v\n"+
			"select  p50 %v  p99 %v   mutate  p50 %v  p99 %v\n"+
			"cached  p50 %v  p99 %v (%d)   uncached  p50 %v  p99 %v (%d)\n"+
			"maintenance  retained %d  regrown %d  dropped %d\n"+
			"group commit  batches %d  mutations carried %d  (mean %.1f/batch)",
		r.Clients, r.Requests, r.Selects, r.Mutations, r.Duration.Round(time.Millisecond),
		r.Throughput, r.P50, r.P90, r.P99, r.Max,
		r.SelectLatency.Quantile(0.50), r.SelectLatency.Quantile(0.99),
		r.MutateLatency.Quantile(0.50), r.MutateLatency.Quantile(0.99),
		r.CachedLatency.Quantile(0.50), r.CachedLatency.Quantile(0.99), r.CachedLatency.Count(),
		r.UncachedLatency.Quantile(0.50), r.UncachedLatency.Quantile(0.99), r.UncachedLatency.Count(),
		r.Retained, r.Regrown, r.Dropped,
		r.Batches, r.BatchedMutations, r.meanBatch())
}

func (r LoadReport) meanBatch() float64 {
	if r.Batches == 0 {
		return 0
	}
	return float64(r.BatchedMutations) / float64(r.Batches)
}

// RunLoad drives e with a closed-loop workload and reports throughput and
// latency percentiles. It returns an error only for an unusable config
// (no queries, or a query that fails to parse — verified up front so the
// hot loop never hits parse errors).
func RunLoad(e *Engine, cfg LoadConfig) (LoadReport, error) {
	var mix *replayMix
	if cfg.Replay != nil {
		var err error
		if mix, err = buildReplayMix(e, cfg.Replay); err != nil {
			return LoadReport{}, err
		}
	} else if len(cfg.Queries) == 0 {
		return LoadReport{}, fmt.Errorf("engine: load config needs at least one query")
	}
	for _, src := range cfg.Queries {
		if _, err := e.plans.get(src); err != nil {
			return LoadReport{}, fmt.Errorf("engine: load query %q: %w", src, err)
		}
	}
	var qmix WeightedChooser
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != len(cfg.Queries) {
			return LoadReport{}, fmt.Errorf("engine: %d weights for %d queries", len(cfg.Weights), len(cfg.Queries))
		}
		var err error
		if qmix, err = NewWeightedChooser(cfg.Weights); err != nil {
			return LoadReport{}, fmt.Errorf("engine: load weights: %w", err)
		}
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.MutateEdges == nil {
		cfg.MutateEdges = func(i int) []EdgeSpec {
			// Attach a fresh node somewhere deterministic so every
			// mutation really changes the graph (and the epoch).
			return []EdgeSpec{{
				From:  fmt.Sprintf("loadgen-%d", i),
				Label: "loadgen",
				To:    fmt.Sprintf("loadgen-%d", i+1),
			}}
		}
	}

	type clientStats struct {
		selects   uint64
		mutations uint64
	}
	stats := make([]clientStats, cfg.Clients+cfg.Writers)
	// Latencies go into two shared lock-free histograms (one per request
	// class) instead of per-client slices: memory is a fixed few hundred
	// bytes regardless of how many million requests a long run completes,
	// where the old per-request slice grew without bound.
	var selectLat, mutateLat telemetry.Histogram
	var cachedLat, uncachedLat telemetry.Histogram
	var mutSeq sync.Mutex
	mutI := 0
	nextMutation := func() []EdgeSpec {
		mutSeq.Lock()
		i := mutI
		mutI++
		mutSeq.Unlock()
		return cfg.MutateEdges(i)
	}

	before := e.Stats()
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			st := &stats[c]
			pickQuery := func() string {
				if len(cfg.Weights) > 0 {
					return cfg.Queries[qmix.Choose(rng.Float64())]
				}
				return cfg.Queries[rng.Intn(len(cfg.Queries))]
			}
			for n := 1; ; n++ {
				if cfg.RequestsPerClient > 0 {
					if n > cfg.RequestsPerClient {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				t0 := time.Now()
				mutate := cfg.MutateEvery > 0 && n%cfg.MutateEvery == 0
				if !mutate && cfg.MutateRate > 0 && rng.Float64() < cfg.MutateRate {
					mutate = true
				}
				if mutate {
					if _, err := e.Mutate(nextMutation()); err != nil {
						panic(err) // a volatile load-driver engine cannot fail durably
					}
					st.mutations++
					mutateLat.Observe(time.Since(t0))
				} else if mix != nil {
					re := &mix.entries[mix.chooser.Choose(rng.Float64())]
					a, err := e.Evaluate(context.Background(), Request{
						Query: re.Expr, Semantics: re.Semantics, From: re.From,
					})
					if err != nil {
						panic(err) // entries were verified by buildReplayMix
					}
					st.selects++
					d := time.Since(t0)
					selectLat.Observe(d)
					mix.hists[re.Class].Observe(d)
					if a.Cached {
						cachedLat.Observe(d)
					} else {
						uncachedLat.Observe(d)
					}
				} else if cfg.BatchSize > 1 {
					batch := make([]Request, cfg.BatchSize)
					for i := range batch {
						batch[i] = Request{Query: pickQuery()}
					}
					if _, _, err := e.EvaluateBatch(context.Background(), batch); err != nil {
						panic(err) // queries were verified above
					}
					st.selects++
					selectLat.Observe(time.Since(t0))
				} else {
					r, err := e.Evaluate(context.Background(), Request{Query: pickQuery()})
					if err != nil {
						panic(err)
					}
					st.selects++
					d := time.Since(t0)
					selectLat.Observe(d)
					if r.Cached {
						cachedLat.Observe(d)
					} else {
						uncachedLat.Observe(d)
					}
				}
			}
		}(c)
	}
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[cfg.Clients+w]
			for {
				if time.Now().After(deadline) {
					return
				}
				t0 := time.Now()
				if _, err := e.Mutate(nextMutation()); err != nil {
					panic(err) // the loadgen engine cannot fail durably
				}
				st.mutations++
				mutateLat.Observe(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	report := LoadReport{Clients: cfg.Clients, Duration: wall}
	for i := range stats {
		report.Selects += stats[i].selects
		report.Mutations += stats[i].mutations
	}
	report.SelectLatency = selectLat.Snapshot()
	report.MutateLatency = mutateLat.Snapshot()
	if mix != nil {
		report.ClassLatency = mix.snapshot()
	}
	report.CachedLatency = cachedLat.Snapshot()
	report.UncachedLatency = uncachedLat.Snapshot()
	after := e.Stats()
	report.Retained = after.ResultRetained - before.ResultRetained
	report.Regrown = after.ResultRegrown - before.ResultRegrown
	report.Dropped = after.ResultDropped - before.ResultDropped
	report.Batches = after.WalBatches - before.WalBatches
	report.BatchedMutations = after.WalBatchedMutations - before.WalBatchedMutations
	all := report.SelectLatency
	all.Merge(&report.MutateLatency)
	report.Requests = all.Count()
	if wall > 0 {
		report.Throughput = float64(report.Requests) / wall.Seconds()
	}
	report.P50 = all.Quantile(0.50)
	report.P90 = all.Quantile(0.90)
	report.P99 = all.Quantile(0.99)
	report.Max = time.Duration(all.Max)
	return report, nil
}
