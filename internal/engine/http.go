package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"pathquery/internal/core"
	"pathquery/internal/query"
	"pathquery/internal/telemetry"
)

// HandlerOptions tunes the diagnostics of the route table's handlers.
type HandlerOptions struct {
	// Tenant names the graph a handler serves, for the slow-query log's
	// tenant field. Empty under NewHandler.
	Tenant string
	// SlowQuery, when positive, logs every /v1/query whose total time
	// reaches it as one structured JSON line via SlowLogf.
	SlowQuery time.Duration
	// SlowLogf receives slow-query lines (log.Printf when nil).
	SlowLogf func(format string, args ...any)
}

// Route is one row of the per-graph route table: an operation's name,
// the one method it accepts, its path under NewHandler, and its handler.
type Route struct {
	Name   string
	Method string
	Path   string
	Serve  func(e *Engine, opt HandlerOptions, w http.ResponseWriter, r *http.Request)
}

// Routes returns the per-graph route table, one row per operation.
// NewHandler mounts it at the root; internal/server serves row Name of
// graph name at /v1/graphs/{name}/{Name}.
func Routes() []Route {
	return []Route{
		{"query", http.MethodPost, "/v1/query", serveQuery},
		{"batch", http.MethodPost, "/v1/batch", serveBatch},
		{"mutate", http.MethodPost, "/mutate", serveMutate},
		{"learn", http.MethodPost, "/learn", serveLearn},
		{"stats", http.MethodGet, "/stats", serveStats},
		{"plans", http.MethodGet, "/plans", servePlans},
	}
}

// NewHandler serves e's route table at the root — the per-graph surface
// that cmd/pqserve mounts under /v1/graphs/{name}/. The evaluation
// surface is the versioned unified protocol:
//
//	POST /v1/query {"query", "semantics", "from", "limit", "maxLen"}
//	POST /v1/batch {"requests": [<request>, ...]}
//
// One endpoint serves every result shape; "semantics" picks it:
//
//	nodes     (default) monadic selection     -> "nodes": [names...]
//	pairsFrom binary selection from "from"    -> "nodes": [names...]
//	witness   monadic selection + one proof   -> "paths": [{"nodes", "word"}]
//	count     distinct accepting lengths      -> "counts": [{"node", "count"}]
//	          per node, up to "maxLen"
//	shortest  shortest witness per node, or   -> "paths": [{"nodes", "word"}]
//	          per pair when "from" is set
//
// Every answer carries {"epoch", "semantics", "count", "cached"}; "limit"
// truncates the rows (for witness/shortest it also bounds the paths
// computed), never "count". The request context cancels the evaluation:
// a client disconnect or server deadline aborts the product traversal.
// Errors answer with a structured envelope
//
//	{"error": {"code": "parse_error", "message": "..."}}
//
// whose stable codes include bad_body, body_too_large, parse_error,
// unknown_semantics, unknown_node, missing_from, unexpected_from,
// max_len_too_large, bad_k, abstain, inconsistent, canceled and
// deadline_exceeded.
//
// The bodies of /v1/query, /v1/batch, /learn and /mutate are read whole
// and decoded by a hand-written strict decoder (wire.go), not by
// reflection. It accepts exactly what json.Decoder accepts with unknown
// fields disallowed: one JSON object (or null, the zero request) and
// nothing but whitespace after it; keys match fields exactly or under
// case folding, and int fields take only integer literals that fit. Any
// other body answers 400 bad_body, with a message that starts "bad
// request body: ", and every body over MaxBodyBytes answers 413
// body_too_large, however early it stops being valid JSON.
//
// Mutation, learning and introspection are unversioned:
//
//	POST /mutate {"edges": [{"from","label","to"}]} -> {"epoch", "nodes", "edges"}
//	POST /learn  {"pos","neg","k","maxk","limit"}   -> learned query + selection
//	GET  /stats                                     -> engine counters
//	GET  /plans                                     -> cached compiled plans
//	GET  /healthz                                   -> ok
//
// /learn runs Algorithm 1 on the served epoch and installs the learned
// query as a serving plan; the response's "query" string immediately
// serves from the caches via /v1/query, and its "selection" is that
// query's nodes answer in the /v1/query shape. Insufficient examples
// (the paper's abstain) answer 422 with code "abstain"; a sample the
// learner proves inconsistent — a positive whose every path the
// negatives cover (Lemma 3.1) — answers 422 "inconsistent", naming that
// node. An example name not in the served epoch answers 404
// unknown_node. "k" fixes the SCP bound
// (0 = dynamic schedule from 2 up to "maxk", default 8). A negative "k",
// a negative "maxk", a "maxk" of 1, or a "k" or "maxk" above maxLearnK
// (16) answers 400 bad_k. "pos" and "neg" are node names; "limit"
// truncates the selection's rows as on /v1/query.
//
// Diagnostics: POST /v1/query?trace=1 adds a "trace" field to the
// answer — {"total_ns", "spans": [{"name", "ns"}]} — breaking the
// request into its stages (admission when fronted by the multi-tenant
// server, compile, cache_lookup, traverse); the spans are sequential,
// so their sum never exceeds total_ns. Error envelopes echo the
// request id stamped by telemetry.WithRequestID (when installed) as
// "error.request_id".
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range Routes() {
		mux.HandleFunc(rt.Method+" "+rt.Path, func(w http.ResponseWriter, r *http.Request) {
			rt.Serve(e, HandlerOptions{}, w, r)
		})
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func serveQuery(e *Engine, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	ctx := r.Context()
	// Parsing the query string costs a map per request; most have none.
	wantTrace := r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
	// The multi-tenant server creates the trace above admission; under
	// NewHandler, create one here when the client asked or the slow-query
	// log may need it.
	tr := telemetry.TraceFrom(ctx)
	if tr == nil && (wantTrace || opt.SlowQuery > 0) {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
	}
	ans, err := e.Evaluate(ctx, req)
	if err != nil {
		opt.logSlow(w, req, tr, Answer{}, err)
		WriteError(w, err)
		return
	}
	var shown *telemetry.Trace
	if wantTrace {
		shown = tr
	}
	writeWire(w, func(b []byte) []byte { return appendAnswer(b, &ans, req.Limit, shown) })
	opt.logSlow(w, req, tr, ans, nil)
}

func serveBatch(e *Engine, _ HandlerOptions, w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	epoch, answers, err := e.EvaluateBatch(r.Context(), req.Requests)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeWire(w, func(b []byte) []byte { return appendBatch(b, epoch, answers, req.Requests) })
}

func serveMutate(e *Engine, _ HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if edges, ok := DecodeMutation(w, r); ok {
		ServeMutation(e, w, edges)
	}
}

// DecodeMutation reads a /mutate body and checks that every edge names
// its from, label and to. On failure it answers the error envelope and
// returns false.
func DecodeMutation(w http.ResponseWriter, r *http.Request) ([]EdgeSpec, bool) {
	var req mutationRequest
	if !decodeBody(w, r, &req) {
		return nil, false
	}
	for i, ed := range req.Edges {
		if ed.From == "" || ed.Label == "" || ed.To == "" {
			WriteError(w, badRequest("bad_edge",
				"edge %d: from, label and to are all required", i))
			return nil, false
		}
	}
	return req.Edges, true
}

// ServeMutation applies edges decoded by DecodeMutation to e and answers
// the published epoch and the graph's size.
func ServeMutation(e *Engine, w http.ResponseWriter, edges []EdgeSpec) {
	m, err := e.Mutate(edges)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, struct {
		Epoch uint64 `json:"epoch"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
	}{m.Epoch, m.Nodes, m.Edges})
}

// maxLearnK caps /learn's SCP bound, "k" or "maxk". The learner's
// polynomial run time rests on the bound (consistency without it is
// PSPACE-hard, Lemma 3.2), and a sample that abstains runs every round of
// the schedule up to maxk, so an uncapped wire value would let one request
// hold a tenant's in-flight slot for as long as it names. 16 is twice the
// default schedule's top and four times the paper's largest k.
const maxLearnK = 16

func serveLearn(e *Engine, _ HandlerOptions, w http.ResponseWriter, r *http.Request) {
	var req learnRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The dynamic schedule starts at k = 2, so a maxk of 1 would run
	// no learner at all and answer a misleading abstain.
	if req.K < 0 || req.K > maxLearnK || req.MaxK < 0 || req.MaxK == 1 || req.MaxK > maxLearnK {
		WriteError(w, badRequest("bad_k",
			"k must be 0 to %d and maxk 0 or 2 to %d (got k=%d, maxk=%d)",
			maxLearnK, maxLearnK, req.K, req.MaxK))
		return
	}
	lr, err := e.LearnNamed(req.Pos, req.Neg, core.Options{K: req.K, MaxK: req.MaxK})
	if err != nil {
		WriteError(w, err)
		return
	}
	writeWire(w, func(b []byte) []byte { return appendLearn(b, &lr, req.Limit) })
}

func serveStats(e *Engine, _ HandlerOptions, w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, e.Stats())
}

func servePlans(e *Engine, _ HandlerOptions, w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, struct {
		Plans []PlanInfo `json:"plans"`
	}{e.Plans()})
}

// spanResponse is one traced stage of a slow-query log line.
type spanResponse struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// slowQueryEntry is one structured slow-query log line.
type slowQueryEntry struct {
	RequestID string         `json:"request_id,omitempty"`
	Tenant    string         `json:"tenant,omitempty"`
	Query     string         `json:"query"`
	Semantics string         `json:"semantics"`
	Epoch     uint64         `json:"epoch"`
	TotalNs   int64          `json:"total_ns"`
	Spans     []spanResponse `json:"spans"`
	Cached    bool           `json:"cached"`
	Error     string         `json:"error,omitempty"`
}

// logSlow emits one JSON slow-query line when tracing is on and the
// request's total time reached the threshold. Failed evaluations log
// too (with the error message): a query slow enough to hit its
// deadline is exactly the one to diagnose.
func (o HandlerOptions) logSlow(w http.ResponseWriter, req Request, tr *telemetry.Trace, ans Answer, evalErr error) {
	if o.SlowQuery <= 0 || tr == nil {
		return
	}
	total := tr.Total()
	if total < o.SlowQuery {
		return
	}
	spans := tr.Spans()
	entry := slowQueryEntry{
		RequestID: telemetry.RequestID(w),
		Tenant:    o.Tenant,
		Query:     req.Query,
		Semantics: req.Semantics,
		Epoch:     ans.Epoch,
		TotalNs:   int64(total),
		Spans:     make([]spanResponse, len(spans)),
		Cached:    ans.Cached,
	}
	for i, s := range spans {
		entry.Spans[i] = spanResponse{Name: s.Name, Ns: int64(s.Duration)}
	}
	if entry.Semantics == "" {
		entry.Semantics = query.SemanticsNodes.String()
	}
	if evalErr != nil {
		entry.Error = evalErr.Error()
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	logf := o.SlowLogf
	if logf == nil {
		logf = log.Printf
	}
	logf("slow-query %s", line)
}

// MaxBodyBytes bounds every request body the handler reads (8 MiB). A
// mutation body this size encodes to a WAL record comfortably under
// store.MaxRecordLen (the binary framing is tighter than the JSON it
// came from), so the durability layer never sees an HTTP mutation it
// would have to reject after the fact.
const MaxBodyBytes = 8 << 20

// WriteJSON answers v through reflective encoding/json, for the routes
// off the answer path (/mutate, /stats, /plans and the multi-tenant
// server's own).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError answers err as the structured envelope
// {"error": {"code", "message"}}, mapping APIError codes, context
// cancellation and the learner's abstain and inconsistent sample onto
// statuses.
func WriteError(w http.ResponseWriter, err error) {
	code, status := "bad_request", http.StatusBadRequest
	var ae *APIError
	var ie *core.InconsistentError
	switch {
	case errors.As(err, &ae):
		code, status = ae.Code, ae.Status
	case errors.Is(err, context.DeadlineExceeded):
		code, status = "deadline_exceeded", http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code, status = "canceled", 499 // client closed request
	case errors.As(err, &ie):
		code, status = "inconsistent", http.StatusUnprocessableEntity
		err = fmt.Errorf("inconsistent: no query selects positive node %q, whose every path the negatives cover; more examples cannot help", ie.Name)
	case errors.Is(err, core.ErrAbstain):
		code, status = "abstain", http.StatusUnprocessableEntity
		err = fmt.Errorf("abstain: not enough examples to learn a consistent query")
	}
	var env errorEnvelope
	env.Error.Code, env.Error.Message = code, err.Error()
	// The request id was stamped on the response header by
	// telemetry.WithRequestID (when installed) before the handler ran,
	// so even error envelopes correlate with the access logs.
	env.Error.RequestID = telemetry.RequestID(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}

// errorEnvelope is the structured wire error of the v1 protocol.
type errorEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	} `json:"error"`
}
