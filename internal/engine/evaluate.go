package engine

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/telemetry"
)

// maxCountLen caps the count-semantics length bound: each length costs one
// backward relaxation over the product space, so an uncapped wire value
// would let a single request buy unbounded work.
const maxCountLen = 4096

// maxWitnessPaths caps (and defaults) the witness paths computed per
// request: each path costs a parent-chain BFS over the product space, so
// "no limit" on a selective query over a large graph would likewise buy
// unbounded work. The normalized limit is part of the cache key, and
// normalizing before the int32 narrowing there keeps distinct huge wire
// values from aliasing one entry.
const maxWitnessPaths = 4096

// Request is one evaluation request on the unified API — the body of
// POST /v1/query and the argument of Engine.Evaluate. Query is the only
// required field; Semantics defaults to "nodes".
type Request struct {
	// Query is the regular expression to evaluate.
	Query string `json:"query"`
	// Semantics selects the result shape: "nodes" (default), "pairsFrom",
	// "witness", "count" or "shortest".
	Semantics string `json:"semantics,omitempty"`
	// From names the anchor node of binary semantics: required for
	// pairsFrom, optional for shortest (which is per-node without it),
	// rejected elsewhere.
	From string `json:"from,omitempty"`
	// Limit bounds the result rows: for witness/shortest it bounds the
	// paths computed (and therefore the work; omitted, non-positive, or
	// over-cap values are normalized to the per-request cap of 4096
	// paths); for nodes/pairsFrom/count it truncates the rendered rows,
	// never Count.
	Limit int `json:"limit,omitempty"`
	// MaxLen bounds the accepting path lengths counted under count
	// semantics (default 2·|Q|+1, capped at 4096).
	MaxLen int `json:"maxLen,omitempty"`
}

// Answer is the result of one evaluation, pinned to the epoch it was
// evaluated (or cached) on. Exactly one of Nodes, Paths, Counts is
// populated, per the request's semantics; Count is always the total
// number of matches even when Limit truncated the rows. Slices are shared
// with the result cache and must not be modified.
type Answer struct {
	// Epoch is the snapshot the answer is valid for.
	Epoch uint64
	// Semantics is the result shape served.
	Semantics query.Semantics
	// Count is the total number of matches (selected nodes, selected
	// pairs, or nodes with a nonzero count).
	Count int
	// Cached reports whether the answer came from the result cache (or an
	// in-flight computation shared via single-flight) rather than a fresh
	// evaluation pass.
	Cached bool
	// Nodes holds the selection under nodes/pairsFrom semantics.
	Nodes []graph.NodeID
	// Paths holds the reconstructed paths under witness/shortest
	// semantics, one per selected node (or pair target), up to Limit.
	Paths []graph.PathWitness
	// Counts holds the per-node accepting-length counts (count semantics;
	// nodes with a zero count are omitted).
	Counts []query.NodeCount

	snap *graph.Snapshot
	// ent is the result entry the answer was served from; the wire
	// renders its rows (wire.go). Holding an Answer keeps the whole entry
	// alive, its product masks and rendered rows included, even after the
	// cache evicts it.
	ent *resultEntry
}

// Names resolves Nodes to names, as of the answer's epoch.
func (a Answer) Names() []string {
	out := make([]string, len(a.Nodes))
	for i, v := range a.Nodes {
		out[i] = a.snap.NodeName(v)
	}
	return out
}

// APIError is a request error with a stable machine-readable code — the
// "error.code" of the /v1/query wire protocol — and the HTTP status the
// wire layer maps it to.
type APIError struct {
	Code    string // stable identifier: "parse_error", "unknown_node", ...
	Status  int    // HTTP status for the wire layer
	Message string
}

func (e *APIError) Error() string { return e.Message }

func badRequest(code, format string, args ...any) *APIError {
	return &APIError{Code: code, Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// unknownNode is the 404 for a node name not visible in snap.
func unknownNode(snap *graph.Snapshot, name string) *APIError {
	return &APIError{
		Code:    "unknown_node",
		Status:  http.StatusNotFound,
		Message: fmt.Sprintf("engine: no node %q in epoch %d", name, snap.Epoch()),
	}
}

// Evaluate runs one evaluation against the currently served epoch: the
// snapshot is pinned with one atomic load, the query is interned through
// the plan cache, and the answer flows through the single-flight result
// cache keyed by (semantics, args, plan) and revalidated against the
// pinned epoch. ctx cancels the underlying product traversal — a
// canceled or deadline-exceeded request returns ctx.Err() promptly and
// caches nothing. This and EvaluateBatch are the engine's only
// evaluation entry points.
func (e *Engine) Evaluate(ctx context.Context, req Request) (Answer, error) {
	start := time.Now()
	sem, err := query.ParseSemantics(req.Semantics)
	if err != nil {
		return Answer{}, badRequest("unknown_semantics", "%v", err)
	}
	tr := telemetry.TraceFrom(ctx)
	endCompile := tr.StartSpan("compile")
	plan, err := e.plans.get(req.Query)
	endCompile()
	if err != nil {
		return Answer{}, badRequest("parse_error", "%v", err)
	}
	snap := e.g.Current()
	qreq, err := e.buildReq(snap, plan, sem, req)
	if err != nil {
		return Answer{}, err
	}
	e.queries.Add(1)
	ans, err := e.evaluateOn(ctx, snap, plan, qreq)
	// Evaluation latency is observed per requested semantics, evaluation
	// errors (cancellations, deadlines) included — a timing-out class
	// should show in its histogram, not vanish from it. Wire-level
	// rejects above never reach the evaluator and are not observed.
	e.evalHist[sem].Observe(time.Since(start))
	if err != nil {
		return Answer{}, err
	}
	// The answer reports the semantics the client asked for, even where
	// buildReq normalized it onto a shared computation (shortest→witness).
	ans.Semantics = sem
	return ans, nil
}

// buildReq validates the wire-level arguments against the pinned snapshot
// and normalizes them into the canonical snapshot-level request the result
// cache is keyed by.
func (e *Engine) buildReq(snap *graph.Snapshot, p *cachedPlan, sem query.Semantics, req Request) (query.Req, error) {
	qreq := query.Req{Semantics: sem}
	switch sem {
	case query.SemanticsPairsFrom, query.SemanticsShortest:
		if req.From == "" {
			if sem == query.SemanticsPairsFrom {
				return query.Req{}, badRequest("missing_from", "engine: pairsFrom semantics requires a from node")
			}
		} else {
			u, ok := e.g.NodeByName(req.From)
			if !ok || int(u) >= snap.NumNodes() {
				return query.Req{}, unknownNode(snap, req.From)
			}
			qreq.From, qreq.HasFrom = u, true
		}
	default:
		if req.From != "" {
			return query.Req{}, badRequest("unexpected_from", "engine: %v semantics takes no from node", sem)
		}
	}
	switch sem {
	case query.SemanticsWitness, query.SemanticsShortest:
		// Limit bounds the work here, so it is part of the cache key.
		// Absent, non-positive and over-cap values all normalize to the
		// cap: the engine never computes more than maxWitnessPaths paths
		// per request, and the key narrowing to int32 cannot alias.
		qreq.Limit = req.Limit
		if qreq.Limit <= 0 || qreq.Limit > maxWitnessPaths {
			qreq.Limit = maxWitnessPaths
		}
	case query.SemanticsCount:
		maxLen := req.MaxLen
		if maxLen <= 0 {
			// The server-chosen default is clamped, never rejected: only a
			// client-supplied over-cap value is the client's error.
			maxLen = min(p.q.DefaultMaxLen(), maxCountLen)
		} else if maxLen > maxCountLen {
			return query.Req{}, badRequest("max_len_too_large", "engine: maxLen %d exceeds the cap %d", maxLen, maxCountLen)
		}
		qreq.MaxLen = maxLen
	}
	if qreq.Semantics == query.SemanticsShortest && !qreq.HasFrom {
		// Shortest without an anchor is witness by definition (the witness
		// BFS returns the canonical-minimal, i.e. shortest, path), so the
		// two share one computation and one cache entry; Evaluate restores
		// the requested semantics on the answer.
		qreq.Semantics = query.SemanticsWitness
	}
	return qreq, nil
}

// evaluateOn answers one evaluation against a pinned snapshot, through the
// single-flight result cache.
func (e *Engine) evaluateOn(ctx context.Context, snap *graph.Snapshot, p *cachedPlan, qreq query.Req) (Answer, error) {
	key := resultKey{
		sem:    qreq.Semantics,
		from:   qreq.From,
		limit:  int32(qreq.Limit),
		maxLen: int32(qreq.MaxLen),
		plan:   p.key,
	}
	if !qreq.HasFrom {
		key.from = -1
	}
	// TraceFrom on an untraced context is one nil map-free Value lookup
	// and the nil-trace span ends are no-ops, so an untraced cached hit
	// pays no span timing.
	tr := telemetry.TraceFrom(ctx)
	endLookup := tr.StartSpan("cache_lookup")
	ent, cached := e.results.lookup(key, snap)
	endLookup()
	if !cached {
		// A regrow of a stale entry runs under this span too.
		endTraverse := tr.StartSpan("traverse")
		var err error
		ent, cached, err = e.results.do(ctx, key, snap, p.q, e.regrowBudget, func() (query.Answer, []uint64, error) {
			// For masked nodes entries this also returns the product
			// fixpoint, which the cache keeps so a read at a later epoch
			// can regrow the entry instead of recomputing it (maintain.go).
			return p.q.EvaluateReq(ctx, snap, qreq)
		})
		endTraverse()
		if err != nil {
			return Answer{}, err
		}
	}
	return Answer{
		Epoch:     snap.Epoch(),
		Semantics: ent.ans.Semantics,
		Count:     ent.ans.Count,
		Cached:    cached,
		Nodes:     ent.ans.Nodes,
		Paths:     ent.ans.Paths,
		Counts:    ent.ans.Counts,
		snap:      snap,
		ent:       ent,
	}, nil
}

// EvaluateBatch evaluates every request against one pinned snapshot, so
// all answers share an epoch (returned alongside them). Plans are compiled
// and arguments validated up front — the whole batch fails on the first
// bad request — then cache misses fan out over workers bounded by
// GOMAXPROCS, with duplicate requests inside the batch collapsing into one
// evaluation via the single-flight result cache.
func (e *Engine) EvaluateBatch(ctx context.Context, reqs []Request) (uint64, []Answer, error) {
	plans := make([]*cachedPlan, len(reqs))
	qreqs := make([]query.Req, len(reqs))
	sems := make([]query.Semantics, len(reqs))
	snap := e.g.Current()
	for i, req := range reqs {
		sem, err := query.ParseSemantics(req.Semantics)
		if err != nil {
			return 0, nil, badRequest("unknown_semantics", "engine: batch request %d: %v", i, err)
		}
		p, err := e.plans.get(req.Query)
		if err != nil {
			return 0, nil, badRequest("parse_error", "engine: batch request %d: %v", i, err)
		}
		qr, err := e.buildReq(snap, p, sem, req)
		if err != nil {
			return 0, nil, prefixBatchIndex(err, i)
		}
		plans[i], qreqs[i], sems[i] = p, qr, sem
	}
	e.batches.Add(1)
	e.queries.Add(uint64(len(reqs)))

	answers := make([]Answer, len(reqs))
	errs := make([]error, len(reqs))
	evalOne := func(i int) {
		start := time.Now()
		answers[i], errs[i] = e.evaluateOn(ctx, snap, plans[i], qreqs[i])
		e.evalHist[sems[i]].Observe(time.Since(start))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			evalOne(i)
		}
	} else {
		// A fixed worker pool pulling indexes off an atomic counter: the
		// goroutine count is bounded by GOMAXPROCS no matter how large the
		// batch is, so one huge /v1/batch body cannot buy a goroutine (and
		// stack) per request.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					evalOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	for i := range answers {
		answers[i].Semantics = sems[i]
	}
	return snap.Epoch(), answers, nil
}

// prefixBatchIndex stamps the failing request's index into an APIError's
// message so a batch client can tell which member was rejected.
func prefixBatchIndex(err error, i int) error {
	if ae, ok := err.(*APIError); ok {
		return &APIError{
			Code:    ae.Code,
			Status:  ae.Status,
			Message: fmt.Sprintf("engine: batch request %d: %s", i, ae.Message),
		}
	}
	return fmt.Errorf("engine: batch request %d: %w", i, err)
}
