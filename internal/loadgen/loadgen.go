// Package loadgen is the closed-loop load driver: a fixed number of
// clients each issue requests back to back, every client waiting for its
// answer before it sends the next. Reads are drawn from one recorded mix
// (an engine.ReplaySpec: AQ classes from a pqworkload file, or syn1..syn3
// as one class per query), and each request is a one-edge mutation with
// probability MutateRate. The same loop drives either the engine in
// process (InProcess) or one graph of a live server over HTTP (HTTP), so
// a run's per-class counts depend on the seed and the config, not on the
// transport. `pqbench -serve` and `pqbench -replay` run it at full scale,
// and the closed-loop benches in bench_test.go record it into the
// BENCH_<date>.json snapshots.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/engine"
	"pathquery/internal/telemetry"
)

// Target is what the clients drive: one graph, in process or over HTTP.
type Target interface {
	// Read evaluates one mix entry and reports whether the answer came
	// from the result cache.
	Read(ctx context.Context, re *engine.ReplayEntry) (cached bool, err error)
	// Mutate adds edges and publishes a new epoch.
	Mutate(ctx context.Context, edges []engine.EdgeSpec) error
	// Stats reads the engine's counters.
	Stats(ctx context.Context) (engine.Stats, error)
}

// Config configures one closed-loop run.
type Config struct {
	// Clients is the number of concurrent closed-loop clients
	// (default 8).
	Clients int
	// Duration is how long to drive load (default 1s).
	Duration time.Duration
	// RequestsPerClient, when > 0, replaces the Duration cutoff: every
	// client issues exactly this many requests and stops. With a fixed
	// Seed the per-class request counts are then a pure function of the
	// config, whatever the target.
	RequestsPerClient int
	// Mix is the read mix (required): each read draws one of its entries
	// under its class weights and tier filter.
	Mix *engine.ReplaySpec
	// MutateRate makes each request a mutation with this probability
	// (0..1): one edge of the label "loadgen" between fresh nodes, which
	// no mix query mentions.
	MutateRate float64
	// Seed seeds client c's draws with Seed+c.
	Seed int64
}

// Report summarizes a closed-loop run.
type Report struct {
	Clients   int
	Requests  uint64 // selects + mutations completed
	Selects   uint64
	Mutations uint64
	Duration  time.Duration

	// Throughput is completed requests per second.
	Throughput float64
	// Latency percentiles over all requests, estimated from the merged
	// class histograms (within one √2 bucket of exact).
	P50, P90, P99, Max time.Duration

	// SelectLatency and MutateLatency are the per-class latency
	// distributions the percentiles above merge: a mutation (WAL fsync
	// included) and a cached select live orders of magnitude apart.
	SelectLatency, MutateLatency telemetry.HistogramSnapshot

	// ClassLatency splits SelectLatency by the mix's workload class
	// (ReplayEntry.Class), one entry per class left after filtering,
	// drawn or not. Per-class issue counts are the snapshots' Count()s.
	ClassLatency map[string]telemetry.HistogramSnapshot

	// CachedLatency and UncachedLatency split SelectLatency by whether
	// the answer came from the result cache (retained or regrown entries
	// included) or a fresh product pass.
	CachedLatency, UncachedLatency telemetry.HistogramSnapshot
	// Retained, Regrown, Dropped are the engine's result-cache
	// revalidation outcome deltas over the run.
	Retained, Regrown, Dropped uint64
	// Batches and BatchedMutations are the group-commit deltas over the
	// run: BatchedMutations/Batches is the mean coalescing factor.
	Batches, BatchedMutations uint64
}

// String renders the report as a one-stanza summary.
func (r Report) String() string {
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

func (r Report) meanBatch() float64 {
	if r.Batches == 0 {
		return 0
	}
	return float64(r.BatchedMutations) / float64(r.Batches)
}

// mutation is the i-th write of a run: a fresh node linked to the next,
// so every mutation really changes the graph and publishes an epoch.
func mutation(i int64) []engine.EdgeSpec {
	return []engine.EdgeSpec{{
		From:  fmt.Sprintf("loadgen-%d", i),
		Label: "loadgen",
		To:    fmt.Sprintf("loadgen-%d", i+1),
	}}
}

// Run drives t with cfg's closed loop and reports throughput and latency.
// A mix that filters to nothing or has a negative weight is an error
// before any request. The first failed request ends the run for every
// client, and Run returns its error.
func Run(t Target, cfg Config) (Report, error) {
	if cfg.Mix == nil {
		return Report{}, errors.New("loadgen: config needs a read mix")
	}
	entries, chooser, err := cfg.Mix.Flatten()
	if err != nil {
		return Report{}, err
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	// Latencies go into shared lock-free histograms, a few hundred bytes
	// each however many requests a run completes; classHist[i] is the
	// class histogram of entries[i], and selects are the cached and
	// uncached reads together.
	var mutateLat, cachedLat, uncachedLat telemetry.Histogram
	classes := make(map[string]*telemetry.Histogram)
	classHist := make([]*telemetry.Histogram, len(entries))
	for i, re := range entries {
		if classes[re.Class] == nil {
			classes[re.Class] = &telemetry.Histogram{}
		}
		classHist[i] = classes[re.Class]
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before, err := t.Stats(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: stats: %w", err)
	}
	var (
		failOnce sync.Once
		firstErr error
		mutI     atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for n := 0; ctx.Err() == nil; n++ {
				if cfg.RequestsPerClient > 0 {
					if n >= cfg.RequestsPerClient {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				// Only the request is timed, not the draws before it.
				if cfg.MutateRate > 0 && rng.Float64() < cfg.MutateRate {
					edges := mutation(mutI.Add(1) - 1)
					t0 := time.Now()
					if err := t.Mutate(ctx, edges); err != nil {
						fail(fmt.Errorf("loadgen: mutate: %w", err))
						return
					}
					mutateLat.Observe(time.Since(t0))
					continue
				}
				i := chooser.Choose(rng.Float64())
				t0 := time.Now()
				cached, err := t.Read(ctx, &entries[i])
				d := time.Since(t0)
				if err != nil {
					fail(fmt.Errorf("loadgen: read %s %q: %w", entries[i].Class, entries[i].Expr, err))
					return
				}
				classHist[i].Observe(d)
				if cached {
					cachedLat.Observe(d)
				} else {
					uncachedLat.Observe(d)
				}
			}
		}(rand.New(rand.NewSource(cfg.Seed + int64(c))))
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return Report{}, firstErr
	}
	after, err := t.Stats(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: stats: %w", err)
	}

	r := Report{
		Clients:          cfg.Clients,
		Duration:         wall,
		ClassLatency:     make(map[string]telemetry.HistogramSnapshot, len(classes)),
		Retained:         after.ResultRetained - before.ResultRetained,
		Regrown:          after.ResultRegrown - before.ResultRegrown,
		Dropped:          after.ResultDropped - before.ResultDropped,
		Batches:          after.WalBatches - before.WalBatches,
		BatchedMutations: after.WalBatchedMutations - before.WalBatchedMutations,
	}
	r.MutateLatency = mutateLat.Snapshot()
	r.CachedLatency = cachedLat.Snapshot()
	r.UncachedLatency = uncachedLat.Snapshot()
	for name, h := range classes {
		r.ClassLatency[name] = h.Snapshot()
	}
	r.SelectLatency = r.CachedLatency
	r.SelectLatency.Merge(&r.UncachedLatency)
	r.Selects = r.SelectLatency.Count()
	r.Mutations = r.MutateLatency.Count()
	all := r.SelectLatency
	all.Merge(&r.MutateLatency)
	r.Requests = all.Count()
	if wall > 0 {
		r.Throughput = float64(r.Requests) / wall.Seconds()
	}
	r.P50 = all.Quantile(0.50)
	r.P90 = all.Quantile(0.90)
	r.P99 = all.Quantile(0.99)
	r.Max = time.Duration(all.Max)
	return r, nil
}
