// Package engine is the concurrent query-serving layer: it owns a graph
// and answers evaluation requests from any number of goroutines while a
// single logical writer keeps mutating the graph underneath.
//
// The evaluation surface is one request/answer pair: Evaluate(ctx,
// Request) serves every result shape — monadic nodes, binary pairs,
// witness paths, accepting-length counts, shortest witnesses — selected
// by Request.Semantics, with the context canceling the underlying product
// traversal. EvaluateBatch is its many-requests-one-epoch form; there is
// no other way to evaluate a query.
//
// Four mechanisms make serving safe and fast (see DESIGN.md):
//
//   - Epoch snapshots: every request pins one immutable CSR epoch
//     (graph.Snapshot) with a single atomic pointer load; mutations build
//     a new epoch and swap it in, so readers never block writers.
//   - A plan cache interning query sources to compiled plans (parse →
//     determinize → minimize happens once per distinct query), deduplicated
//     across syntactic variants by the canonical language key
//     (query.CacheKey).
//   - A result cache keyed by (semantics, args, plan) with single-flight
//     deduplication: concurrent identical requests share one
//     product-engine pass. Each entry records the epochs its answer is
//     valid for; a read at a newer epoch revalidates it on the spot —
//     retained untouched when the plan's alphabet was not written since,
//     regrown from the epoch delta, or recomputed. Canceled evaluations
//     are never cached; their single-flight waiters retry under their
//     own contexts.
//   - Batched evaluation: EvaluateBatch runs many requests against one
//     pinned snapshot, so every answer of a batch reports the same epoch;
//     cache misses fan out over at most GOMAXPROCS workers, and duplicate
//     requests collapse into one evaluation through the result cache.
//
// The engine also hosts the paper's learner as a service: Learn pins the
// currently served epoch, runs Algorithm 1 on it (serially, every read on
// that one snapshot, so learning never races mutation), and installs the
// learned query into the plan and result caches — the query serves
// immediately after.
package engine

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/telemetry"
	"pathquery/internal/words"
)

// Options tunes an Engine.
type Options struct {
	// ResultCacheCap bounds the number of cached result entries
	// (default 4096). Entries validated longest ago are evicted first.
	ResultCacheCap int
	// Log, if set, makes the engine durable: every Mutate appends its
	// edges to the log — under the write lock, before they are applied —
	// and a log failure aborts the mutation with the graph untouched.
	// internal/store.GraphStore is the WAL-backed implementation.
	Log MutationLog
}

// MutationLog is the engine's write-ahead hook (implemented by
// internal/store.GraphStore). Append receives the mutation before it is
// applied, together with the epoch its publication will carry; it must
// make the record durable (or fail, aborting the mutation). Committed
// runs after the epoch is published, outside the write lock — the
// store's checkpoint trigger; implementations handle their own errors
// (a failed checkpoint is a warning, the WAL already holds the data).
type MutationLog interface {
	Append(epoch uint64, edges []EdgeSpec) error
	Committed(snap *graph.Snapshot)
}

// Engine serves path queries over a mutable graph. All methods are safe
// for concurrent use; mutations are serialized internally.
type Engine struct {
	// The fields every request reads come first, and the publishers'
	// locks next: the per-request counters below then start on another
	// cache line, so incrementing them does not evict these fields from
	// the other cores' caches.
	g       *graph.Graph
	log     MutationLog // write-ahead hook; nil = volatile engine
	plans   *planCache
	results *resultCache
	// regrowBudget bounds the edge relaxations of one cached-result regrow
	// (maintain.go).
	regrowBudget int

	mu sync.Mutex // held by publishers: mutate+publish
	// Group commit (combining lock): concurrent Mutate callers enqueue
	// on commitQ under commitMu; the first to find no committer in
	// flight becomes the leader and drains the queue in byte-capped
	// batches — one WAL append (one fsync), one applied delta, one
	// published epoch per batch — fanning results back to the waiters.
	commitMu   sync.Mutex
	commitCond *sync.Cond
	commitQ    []*pendingMutation
	committing bool

	queries   atomic.Uint64
	batches   atomic.Uint64
	mutations atomic.Uint64
	learns    atomic.Uint64

	// evalHist[s] is the end-to-end Evaluate latency under semantics s
	// (per batch member in EvaluateBatch); mutateHist is the Mutate
	// latency including the group-commit queue wait, WAL append, and
	// epoch publication. Learn's selection of the learned query is part
	// of the learn call, so it is neither timed here nor counted in
	// queries.
	evalHist   [query.NumSemantics]telemetry.Histogram
	mutateHist telemetry.Histogram
	// Per-stage publish latency: building the new epoch's adjacency,
	// the WAL append+fsync, and the snapshot swap. walBatchHist is the
	// distribution of mutations coalesced per WAL batch.
	publishBuildHist telemetry.Histogram
	publishFsyncHist telemetry.Histogram
	publishSwapHist  telemetry.Histogram
	walBatchHist     telemetry.ValueHistogram
	walBatches       atomic.Uint64
	walBatchedMuts   atomic.Uint64
}

// pendingMutation is one Mutate call waiting in the group-commit queue.
type pendingMutation struct {
	edges []EdgeSpec
	res   MutationResult
	err   error
	done  bool
}

// New wraps g in a serving engine and publishes its first epoch. The
// engine takes over concurrency control: from here on, mutate only through
// Mutate and read only through the engine (or through snapshots).
func New(g *graph.Graph, opt Options) *Engine {
	if opt.ResultCacheCap <= 0 {
		opt.ResultCacheCap = 4096
	}
	e := &Engine{
		g:            g,
		log:          opt.Log,
		plans:        newPlanCache(g.Alphabet()),
		results:      newResultCache(opt.ResultCacheCap),
		regrowBudget: defaultRegrowBudget,
	}
	e.commitCond = sync.NewCond(&e.commitMu)
	g.Snapshot()
	return e
}

// FlushMaintenance returns at once: cached answers are revalidated when
// they are read, so no background work trails a publication. It is kept
// for callers written against the former asynchronous maintainer.
func (e *Engine) FlushMaintenance() {}

// Close returns at once: the engine keeps no background goroutine to
// stop. It is kept so owners (server shutdown) can keep closing engines,
// which go on serving reads and mutations afterwards.
func (e *Engine) Close() {}

// Graph returns the underlying graph. Mutating it directly bypasses the
// engine's write serialization; use Mutate instead.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Epoch returns the currently served epoch.
func (e *Engine) Epoch() uint64 { return e.g.Current().Epoch() }

// EdgeSpec names one edge to add.
type EdgeSpec struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

// MutationResult summarizes a published mutation.
type MutationResult struct {
	// Epoch is the newly published epoch serving the mutation.
	Epoch uint64
	// Nodes and Edges are the graph totals as of Epoch.
	Nodes, Edges int
}

// maxCommitBatchBytes caps how much one group-commit batch carries (by
// estimated WAL record payload); the batch's first mutation is always
// included, so an oversized single mutation still commits alone.
const maxCommitBatchBytes = 4 << 20

// Mutate adds the given edges (creating nodes and interning labels as
// needed) and publishes a new epoch serving them. Mutations from any
// number of goroutines are serialized; in-flight readers keep their
// pinned epochs. Concurrent callers group-commit: one leader drains the
// queue in byte-capped batches, writing each batch as a single WAL
// record (one fsync on a durable engine), applying it as one delta, and
// publishing one epoch that every batched caller's result reports. A
// log failure aborts the whole batch — graph untouched, epoch unchanged
// — with a 503 durability_error. An empty edge list is a no-op.
func (e *Engine) Mutate(edges []EdgeSpec) (MutationResult, error) {
	if len(edges) == 0 {
		snap := e.g.Current()
		return MutationResult{Epoch: snap.Epoch(), Nodes: snap.NumNodes(), Edges: snap.NumEdges()}, nil
	}
	start := time.Now()
	defer func() { e.mutateHist.Observe(time.Since(start)) }()
	pm := &pendingMutation{edges: edges}
	e.commitMu.Lock()
	e.commitQ = append(e.commitQ, pm)
	for !pm.done {
		if e.committing {
			// A leader is draining the queue; it will commit pm (and
			// broadcast) or exit, whichever comes first.
			e.commitCond.Wait()
			continue
		}
		e.committing = true
		e.commitMu.Unlock()
		e.commitBatches()
		e.commitMu.Lock()
		e.committing = false
		e.commitCond.Broadcast()
	}
	e.commitMu.Unlock()
	return pm.res, pm.err
}

// nextBatch dequeues the next group-commit batch: a maximal prefix of
// the queue within maxCommitBatchBytes (first entry always included).
func (e *Engine) nextBatch() []*pendingMutation {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if len(e.commitQ) == 0 {
		return nil
	}
	n, size := 0, 0
	for n < len(e.commitQ) {
		sz := 0
		for _, ed := range e.commitQ[n].edges {
			sz += len(ed.From) + len(ed.Label) + len(ed.To) + 12
		}
		if n > 0 && size+sz > maxCommitBatchBytes {
			break
		}
		size += sz
		n++
	}
	batch := make([]*pendingMutation, n)
	copy(batch, e.commitQ)
	rest := copy(e.commitQ, e.commitQ[n:])
	for i := rest; i < len(e.commitQ); i++ {
		e.commitQ[i] = nil // release for GC
	}
	e.commitQ = e.commitQ[:rest]
	return batch
}

// commitGatherWindow is how long the leader pauses between consecutive
// durable batches before picking up the next one: the writers woken by
// the previous fan-out are re-enqueueing at that very moment, and the
// window lets them join the imminent batch instead of the one after it —
// roughly doubling coalescing under writer saturation for a cost that is
// noise next to the fsync the batch is about to pay. A parked sleep, not
// a Gosched loop: yielding on a single-P runtime donates whole scheduler
// slices to unrelated spinning goroutines, while a timer wakes the
// leader regardless of what else is runnable.
const commitGatherWindow = 50 * time.Microsecond

// commitBatches drains the group-commit queue; only the leader runs it.
// The first batch is taken immediately: an uncontended Mutate must not
// pay any gather window.
func (e *Engine) commitBatches() {
	for first := true; ; first = false {
		if !first && e.log != nil {
			time.Sleep(commitGatherWindow)
		}
		batch := e.nextBatch()
		if batch == nil {
			return
		}
		e.commitBatch(batch)
	}
}

// commitBatch commits one batch: one WAL append covering every queued
// mutation, one build-side application, one published epoch, results
// fanned back to the waiters. On append failure the whole batch errors
// with the graph untouched.
func (e *Engine) commitBatch(batch []*pendingMutation) {
	edges := batch[0].edges
	if len(batch) > 1 {
		total := 0
		for _, pm := range batch {
			total += len(pm.edges)
		}
		edges = make([]EdgeSpec, 0, total)
		for _, pm := range batch {
			edges = append(edges, pm.edges...)
		}
	}

	var commitErr error
	var snap *graph.Snapshot
	var st graph.PublishStats
	var fsyncDur time.Duration
	e.mu.Lock()
	if e.log != nil {
		// Every AddEdge dirties the build side, so a nonempty batch
		// publishes exactly the next epoch — the number logged here.
		fsyncStart := time.Now()
		err := e.log.Append(e.g.Epoch()+1, edges)
		fsyncDur = time.Since(fsyncStart)
		if err != nil {
			commitErr = &APIError{
				Code:    "durability_error",
				Status:  http.StatusServiceUnavailable,
				Message: fmt.Sprintf("mutation not applied: %v", err),
			}
		}
	}
	if commitErr == nil {
		for _, ed := range edges {
			e.g.AddEdgeByName(ed.From, ed.Label, ed.To)
		}
		snap, st = e.g.SnapshotStats()
	}
	e.mu.Unlock()

	var res MutationResult
	if commitErr == nil {
		res = MutationResult{Epoch: snap.Epoch(), Nodes: snap.NumNodes(), Edges: snap.NumEdges()}
		e.mutations.Add(uint64(len(batch)))
		e.walBatches.Add(1)
		e.walBatchedMuts.Add(uint64(len(batch)))
		e.walBatchHist.Observe(int64(len(batch)))
		if e.log != nil {
			e.publishFsyncHist.Observe(fsyncDur)
		}
		e.publishBuildHist.Observe(st.Build)
		e.publishSwapHist.Observe(st.Swap)
		if e.log != nil {
			e.log.Committed(snap)
		}
	}
	e.commitMu.Lock()
	for _, pm := range batch {
		pm.res, pm.err, pm.done = res, commitErr, true
	}
	e.commitCond.Broadcast()
	e.commitMu.Unlock()
}

// LearnResult is the outcome of one Engine.Learn call: the learned query,
// its plan-cache installation, and its selection on the epoch the learner
// pinned.
type LearnResult struct {
	// Epoch is the snapshot the learner ran against.
	Epoch uint64
	// Query is the learned path query.
	Query *query.Query
	// Source is the query's rendered expression; issuing it to Evaluate
	// hits the plan entry installed by this call.
	Source string
	// Key is the canonical plan-cache key the query was installed under.
	Key string
	// K is the SCP length bound that succeeded; SCPs are the smallest
	// consistent paths the query was generalized from, in input order.
	K    int
	SCPs []words.Word
	// Selection is the learned query's nodes-semantics answer on the
	// pinned epoch, computed through (and therefore warming) the result
	// cache: an Evaluate of Source at the same epoch is a cache hit.
	Selection Answer
}

// Learn runs the paper's Algorithm 1 against the currently served epoch
// and installs the learned query as a first-class serving plan. The
// snapshot is pinned with one atomic load (mutations racing the learner
// build future epochs and never touch it), and one call learns serially
// on it; concurrent calls run side by side. The result goes into the plan
// cache under its canonical language key plus the result cache at the
// pinned epoch — learn→serve in one call. When the examples are
// insufficient it returns an error matching core.ErrAbstain under
// errors.Is: a *core.InconsistentError where a positive provably has no
// consistent path.
func (e *Engine) Learn(s core.Sample, opt core.Options) (LearnResult, error) {
	return e.learnOn(e.g.Current(), s, opt)
}

// LearnNamed is Learn with examples given as node names, resolved against
// the pinned epoch.
func (e *Engine) LearnNamed(pos, neg []string, opt core.Options) (LearnResult, error) {
	snap := e.g.Current()
	sample := core.Sample{}
	var err error
	if sample.Pos, err = e.resolve(snap, pos); err != nil {
		return LearnResult{}, err
	}
	if sample.Neg, err = e.resolve(snap, neg); err != nil {
		return LearnResult{}, err
	}
	return e.learnOn(snap, sample, opt)
}

// resolve maps node names to ids visible in snap. A name not visible in
// snap — unknown, or added by a later epoch — is the same 404
// unknown_node error /v1/query answers.
func (e *Engine) resolve(snap *graph.Snapshot, names []string) ([]graph.NodeID, error) {
	out := make([]graph.NodeID, 0, len(names))
	for _, name := range names {
		id, ok := e.g.NodeByName(name)
		if !ok || int(id) >= snap.NumNodes() {
			return nil, unknownNode(snap, name)
		}
		out = append(out, id)
	}
	return out, nil
}

// learnOn learns on the pinned snapshot and installs the result.
func (e *Engine) learnOn(snap *graph.Snapshot, s core.Sample, opt core.Options) (LearnResult, error) {
	res, err := core.LearnDetailed(snap, s, opt)
	if err != nil {
		return LearnResult{}, err
	}
	e.learns.Add(1)
	p := e.plans.install(res.Query)
	sel, err := e.evaluateOn(context.Background(), snap, p, query.Req{Semantics: query.SemanticsNodes})
	if err != nil {
		return LearnResult{}, err
	}
	return LearnResult{
		Epoch:     snap.Epoch(),
		Query:     p.q,
		Source:    p.q.String(),
		Key:       p.key,
		K:         res.K,
		SCPs:      res.SCPs,
		Selection: sel,
	}, nil
}

// Stats is a point-in-time counter snapshot of the engine.
type Stats struct {
	Epoch uint64 `json:"epoch"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`

	Queries   uint64 `json:"queries"`
	Batches   uint64 `json:"batches"`
	Mutations uint64 `json:"mutations"`
	Learns    uint64 `json:"learns"`

	PlanHits   uint64 `json:"plan_hits"`
	PlanMisses uint64 `json:"plan_misses"`
	Plans      int    `json:"plans"`
	// PlanStates is the total canonical-DFA state count across cached
	// plans and PlanCompileNs the total one-time compilation cost — the
	// aggregate view of GET /plans.
	PlanStates    int   `json:"plan_states"`
	PlanCompileNs int64 `json:"plan_compile_ns"`

	ResultHits    uint64 `json:"result_hits"`
	ResultMisses  uint64 `json:"result_misses"`
	ResultShared  uint64 `json:"result_shared"` // single-flight waiters
	ResultEntries int    `json:"result_entries"`

	// Revalidation outcomes of reads at a newer epoch (maintain.go):
	// cached results carried forward untouched (no write on the plan's
	// alphabet since), incrementally regrown from the epoch delta, and
	// dropped for a scratch recompute (unregrowable semantics, budget
	// exceeded, or a delta-chain gap). Only scratch passes count as
	// misses.
	ResultRetained uint64 `json:"result_retained"`
	ResultRegrown  uint64 `json:"result_regrown"`
	ResultDropped  uint64 `json:"result_dropped"`

	// Group-commit write path: batches published and mutations carried
	// by them (batched/batches is the mean coalescing factor).
	WalBatches          uint64 `json:"wal_batches"`
	WalBatchedMutations uint64 `json:"wal_batched_mutations"`
}

// Plans lists every cached compiled plan — source, canonical key, state
// count, layout, compile time, and hit count — most-used first. This is
// the GET /plans view.
func (e *Engine) Plans() []PlanInfo { return e.plans.list() }

// RegisterMetrics exposes the engine's counters, gauges, and latency
// histograms on reg under the pathquery_* namespace; labels (typically
// one tenant label) are stamped on every series. Registration is
// idempotent for a given registry and label set — the counters bridge
// the engine's existing atomics via CounterFunc, so no double counting
// can result from calling it twice.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	for s := 0; s < query.NumSemantics; s++ {
		// A fresh slice per semantics: appending to `labels` directly
		// could alias one backing array across iterations.
		ls := make([]telemetry.Label, 0, len(labels)+1)
		ls = append(ls, labels...)
		ls = append(ls, telemetry.Label{Key: "semantics", Value: query.Semantics(s).String()})
		reg.RegisterHistogram("pathquery_eval_seconds",
			"End-to-end Evaluate latency by requested semantics.", &e.evalHist[s], ls...)
	}
	reg.RegisterHistogram("pathquery_mutate_seconds",
		"Mutate latency, including the group-commit wait, WAL append, and epoch publication.", &e.mutateHist, labels...)
	reg.RegisterHistogram("pathquery_publish_build_seconds",
		"Per-publication adjacency build time (incremental overlay merge or full rebuild).", &e.publishBuildHist, labels...)
	reg.RegisterHistogram("pathquery_publish_fsync_seconds",
		"Per-batch WAL append+fsync time (durable engines only).", &e.publishFsyncHist, labels...)
	reg.RegisterHistogram("pathquery_publish_swap_seconds",
		"Per-publication snapshot swap time (delta seal + pointer install).", &e.publishSwapHist, labels...)
	reg.RegisterValueHistogram("pathquery_wal_batch_records",
		"Mutations coalesced per group-commit batch.", &e.walBatchHist, labels...)
	reg.CounterFunc("pathquery_wal_batches_total",
		"Group-commit batches published.", e.walBatches.Load, labels...)
	reg.CounterFunc("pathquery_engine_queries_total",
		"Queries evaluated, batch members included.", e.queries.Load, labels...)
	reg.CounterFunc("pathquery_engine_batches_total",
		"Batch evaluations served.", e.batches.Load, labels...)
	reg.CounterFunc("pathquery_engine_mutations_total",
		"Mutations published.", e.mutations.Load, labels...)
	reg.CounterFunc("pathquery_engine_learns_total",
		"Learner runs installed.", e.learns.Load, labels...)
	reg.CounterFunc("pathquery_plan_cache_hits_total",
		"Plan-cache hits.", e.plans.hits.Load, labels...)
	reg.CounterFunc("pathquery_plan_cache_misses_total",
		"Plan-cache misses (one-time compilations).", e.plans.misses.Load, labels...)
	reg.CounterFunc("pathquery_result_cache_hits_total",
		"Result-cache hits.", e.results.hits.Load, labels...)
	reg.CounterFunc("pathquery_result_cache_misses_total",
		"Result-cache misses (fresh product passes).", e.results.misses.Load, labels...)
	reg.CounterFunc("pathquery_result_cache_shared_total",
		"Evaluations shared with an in-flight identical request (single-flight).", e.results.shared.Load, labels...)
	reg.CounterFunc("pathquery_result_cache_retained_total",
		"Cached results carried forward to a newer epoch untouched when read (no write on the plan's alphabet since).", e.results.retained.Load, labels...)
	reg.CounterFunc("pathquery_result_cache_regrown_total",
		"Cached results incrementally regrown from an epoch delta when read.", e.results.regrown.Load, labels...)
	reg.CounterFunc("pathquery_result_cache_dropped_total",
		"Cached results recomputed from scratch when read at a newer epoch (unregrowable semantics, budget, or chain gap).", e.results.dropped.Load, labels...)
	reg.RegisterHistogram("pathquery_result_cache_regrow_seconds",
		"Per-entry incremental regrow latency when read.", &e.results.regrowHist, labels...)
	reg.GaugeFunc("pathquery_result_cache_entries",
		"Cached result entries.", func() float64 { return float64(e.results.size()) }, labels...)
	reg.GaugeFunc("pathquery_epoch",
		"Currently served epoch.", func() float64 { return float64(e.g.Current().Epoch()) }, labels...)
	reg.GaugeFunc("pathquery_graph_nodes",
		"Nodes in the served epoch.", func() float64 { return float64(e.g.Current().NumNodes()) }, labels...)
	reg.GaugeFunc("pathquery_graph_edges",
		"Edges in the served epoch.", func() float64 { return float64(e.g.Current().NumEdges()) }, labels...)
}

// PublishLatency returns snapshots of the per-stage publish histograms
// (adjacency build, WAL append+fsync, snapshot swap) — the same
// distributions exported to /metrics — for benchmarks and load drivers
// that report percentiles directly.
func (e *Engine) PublishLatency() (build, fsync, swap telemetry.HistogramSnapshot) {
	return e.publishBuildHist.Snapshot(), e.publishFsyncHist.Snapshot(), e.publishSwapHist.Snapshot()
}

// Stats returns current counters.
func (e *Engine) Stats() Stats {
	snap := e.g.Current()
	s := Stats{
		Epoch:               snap.Epoch(),
		Nodes:               snap.NumNodes(),
		Edges:               snap.NumEdges(),
		Queries:             e.queries.Load(),
		Batches:             e.batches.Load(),
		Mutations:           e.mutations.Load(),
		Learns:              e.learns.Load(),
		WalBatches:          e.walBatches.Load(),
		WalBatchedMutations: e.walBatchedMuts.Load(),
	}
	e.plans.fill(&s)
	e.results.fill(&s)
	return s
}
