// Package server is the serving layer over the engine: a registry of
// named graphs, each one served through the engine's route table
// (engine.Routes) and exposed as
//
//	POST /v1/graphs/{name}/query   — engine /v1/query for that graph
//	POST /v1/graphs/{name}/batch   — engine /v1/batch
//	POST /v1/graphs/{name}/mutate  — mutation (creates a durable graph)
//	POST /v1/graphs/{name}/learn   — online learning
//	GET  /v1/graphs/{name}/stats   — engine counters + store durability stats
//	GET  /v1/graphs/{name}/plans   — cached compiled plans
//	GET  /v1/graphs                — registry listing (fleet health)
//	GET  /metrics                  — Prometheus text exposition
//	GET  /healthz                  — liveness (always ok while serving)
//	GET  /readyz                   — readiness (503 until recovery finishes)
//
// The server adds tenancy only: names, creation, admission and metrics.
// For each operation it calls the row's handler directly on the
// original request. A method the row does not accept answers 405 before
// the tenant is looked up, so it creates, recovers and admits nothing.
//
// A graph is either durable or in memory. Durable graphs live under
// Options.DataDir, one internal/store WAL + checkpoints per
// <data>/<name>/. They are created lazily: a syntactically valid,
// non-empty mutate to an unknown name opens a fresh store directory (a
// malformed or empty body is rejected before any durable state is
// minted, and a global Options.MaxTenants cap bounds creation); any
// other verb on an unknown name answers 404. On startup RecoverAll
// replays every existing tenant directory (checkpoint load + WAL tail)
// before /readyz reports ready; a request for a specific tenant that
// arrives earlier triggers that tenant's recovery on the spot and waits
// only for it. DataDir is optional: without it nothing touches disk,
// the server serves only the engines handed to AddEngine (volatile,
// with no store), and a mutate to an unknown name answers 404.
//
// Per-tenant admission control isolates tenants from each other (see
// gate.go): an in-flight cap with a bounded wait queue (overflow answers
// 503 "overloaded" with Retry-After), and a mutation token bucket
// (exhaustion answers 429 "rate_limited" with Retry-After). Errors use
// the engine's structured envelope {"error": {"code", "message"}}.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/engine"
	"pathquery/internal/store"
	"pathquery/internal/telemetry"
)

// Options tunes a Server.
type Options struct {
	// DataDir is the root directory; each durable tenant lives in
	// DataDir/<name>. Empty keeps the server in memory: it serves the
	// engines handed to AddEngine, and a mutate creates no graph.
	DataDir string
	// CheckpointEvery is handed to each tenant's store (store.Options).
	CheckpointEvery int
	// ResultCacheCap is handed to each tenant's engine.
	ResultCacheCap int
	// MaxInFlight caps each tenant's concurrently served requests
	// (default 64).
	MaxInFlight int
	// QueueDepth bounds each tenant's admission wait queue beyond
	// MaxInFlight (default 128; negative sheds immediately on a full
	// semaphore).
	QueueDepth int
	// MutateRate bounds each tenant's mutations per second via a token
	// bucket of MutateBurst (0 = unlimited).
	MutateRate  float64
	MutateBurst int
	// MaxTenants caps the number of registered graphs; a mutation that
	// would create one past the cap answers 503 tenant_limit (default
	// 1024; negative = unlimited). Tenants already on disk always recover
	// regardless of the cap.
	MaxTenants int
	// SlowQuery, when positive, logs every query whose total time
	// reaches it as one structured JSON line through Logf.
	SlowQuery time.Duration
	// Logf receives recovery warnings and per-tenant lifecycle messages;
	// nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = 64
	}
	if out.QueueDepth == 0 {
		out.QueueDepth = 128
	}
	if out.MaxTenants == 0 {
		out.MaxTenants = 1024
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Server is the multi-tenant registry and its HTTP surface.
type Server struct {
	opt  Options
	logf func(format string, args ...any)

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	ready atomic.Bool

	// routes is the engine's route table that dispatch serves.
	routes []engine.Route

	// reg is the server's metric registry (GET /metrics); recoveryHist
	// observes each tenant's recovery (store open + engine build).
	reg          *telemetry.Registry
	recoveryHist telemetry.Histogram
}

// tenant is one named graph: its store (nil in memory), its engine, and
// its admission state. Recovery runs inside once, so concurrent first
// requests (or RecoverAll racing a lazy request) open the store exactly
// once.
type tenant struct {
	name string
	srv  *Server

	once  sync.Once
	err   error
	store *store.GraphStore
	eng   *engine.Engine

	gate   *gate
	mutate *bucket

	// Admission telemetry, created with the registry entry: time queued
	// at the gate, and rejections by reason.
	queueWait   *telemetry.Histogram
	overloaded  *telemetry.Counter
	rateLimited *telemetry.Counter
}

// New creates a server rooted at opt.DataDir (created if absent), or an
// in-memory one when it is empty. The server is not ready until
// RecoverAll finishes — run it in the background and serve
// immediately; /readyz gates traffic that cares.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.DataDir != "" {
		if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{opt: opt, logf: opt.Logf, tenants: make(map[string]*tenant),
		reg: telemetry.NewRegistry(), routes: engine.Routes()}
	s.reg.RegisterHistogram("pathquery_recovery_seconds",
		"Per-tenant recovery latency: store open (checkpoint load + WAL replay) plus engine build.",
		&s.recoveryHist)
	return s, nil
}

// Registry returns the server's metric registry — the backing of
// GET /metrics, also mountable on a separate ops listener.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// RecoverAll recovers every tenant directory under DataDir, then marks
// the server ready; an in-memory server is ready at once. Tenants whose
// recovery fails stay registered with their error (requests to them
// answer 503) — one corrupt tenant must not keep every other graph
// down.
func (s *Server) RecoverAll() {
	defer s.ready.Store(true)
	if s.opt.DataDir == "" {
		return
	}
	entries, err := os.ReadDir(s.opt.DataDir)
	if err != nil {
		s.logf("server: reading %s: %v", s.opt.DataDir, err)
	}
	for _, ent := range entries {
		if !ent.IsDir() || !validName(ent.Name()) {
			continue
		}
		t := s.tenantFor(ent.Name())
		if t == nil {
			continue // closed underneath us
		}
		if err := t.recover(); err != nil {
			s.logf("server: tenant %s: recovery failed: %v", ent.Name(), err)
		} else {
			s.logf("server: tenant %s: recovered epoch %d", ent.Name(), t.eng.Epoch())
		}
	}
}

// Ready reports whether startup recovery has finished.
func (s *Server) Ready() bool { return s.ready.Load() }

// AddEngine serves e as the graph name: an in-memory tenant that is
// recovered from the start and has no store, so its stats carry no
// store block. Like a recovered tenant it is registered whatever
// MaxTenants says. Close closes e. An invalid name, or one already in
// use, is an error.
func (s *Server) AddEngine(name string, e *engine.Engine) error {
	if !validName(name) {
		return fmt.Errorf("server: invalid graph name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("server: closed")
	}
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("server: graph %q already exists", name)
	}
	t := s.newTenant(name)
	t.once.Do(func() { t.eng = e })
	e.RegisterMetrics(s.reg, telemetry.Label{Key: "tenant", Value: name})
	s.tenants[name] = t
	return nil
}

// Close closes every tenant's engine and store. In-flight mutations
// already inside the engine finish against ErrClosed (a 503 to their
// clients).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	var first error
	for _, t := range tenants {
		t.once.Do(func() { t.err = errors.New("server: closed before recovery") })
		if t.eng != nil {
			t.eng.Close()
		}
		if t.store != nil {
			if err := t.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// tenantFor returns the registered tenant, creating the registry entry
// if needed (recovery happens later, inside tenant.recover). Returns nil
// on a closed server.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	t, ok := s.tenants[name]
	if !ok {
		t = s.newTenant(name)
		s.tenants[name] = t
	}
	return t
}

// newTenant builds a registry entry with its admission state and
// telemetry; the caller holds s.mu and registers it.
func (s *Server) newTenant(name string) *tenant {
	t := &tenant{
		name:   name,
		srv:    s,
		gate:   newGate(s.opt.MaxInFlight, s.opt.QueueDepth),
		mutate: newBucket(s.opt.MutateRate, s.opt.MutateBurst),
	}
	// Registered here — not per request — so label cardinality is
	// bounded by the tenants that actually exist.
	tl := telemetry.Label{Key: "tenant", Value: name}
	t.queueWait = s.reg.Histogram("pathquery_queue_wait_seconds",
		"Time spent queued at the tenant's admission gate.", tl)
	t.overloaded = s.reg.Counter("pathquery_admission_rejected_total",
		"Requests rejected by admission control, by reason.",
		tl, telemetry.Label{Key: "reason", Value: "overloaded"})
	t.rateLimited = s.reg.Counter("pathquery_admission_rejected_total",
		"Requests rejected by admission control, by reason.",
		tl, telemetry.Label{Key: "reason", Value: "rate_limited"})
	return t
}

// exists reports whether the tenant is registered or has a directory on
// disk — the test for "may a non-mutate verb touch it". The in-memory
// table is consulted first so the Stat syscall is only paid for names
// this process has not served yet.
func (s *Server) exists(name string) bool {
	if s.registered(name) {
		return true
	}
	if s.opt.DataDir == "" {
		return false
	}
	info, err := os.Stat(filepath.Join(s.opt.DataDir, name))
	return err == nil && info.IsDir()
}

// registered reports whether the tenant is in the in-memory table —
// the syscall-free existence check for hot paths that can tolerate a
// miss on tenants this process has never touched.
func (s *Server) registered(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tenants[name]
	return ok
}

// recover opens the tenant's store and builds its engine, exactly once;
// on success the tenant's engine and store metrics join the server's
// registry under its tenant label.
func (t *tenant) recover() error {
	t.once.Do(func() {
		start := time.Now()
		dir := filepath.Join(t.srv.opt.DataDir, t.name)
		st, err := store.Open(dir, store.Options{
			CheckpointEvery: t.srv.opt.CheckpointEvery,
			Logf:            t.srv.logf,
		})
		if err != nil {
			t.err = err
			return
		}
		t.store = st
		t.eng = engine.New(st.Graph(), engine.Options{
			ResultCacheCap: t.srv.opt.ResultCacheCap,
			Log:            st,
		})
		tl := telemetry.Label{Key: "tenant", Value: t.name}
		t.eng.RegisterMetrics(t.srv.reg, tl)
		st.RegisterMetrics(t.srv.reg, tl)
		t.srv.recoveryHist.Observe(time.Since(start))
	})
	return t.err
}

// validName accepts tenant names that are safe as directory names: no
// separators, no dot-files, a sane length.
func validName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeErr(w, http.StatusServiceUnavailable, "not_ready",
				"tenant recovery in progress", 1*time.Second)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/graphs", s.handleList)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("/v1/graphs/{name}/{op}", s.dispatch)
	// Every request — success or error — carries an X-Request-ID,
	// accepted from the client or minted here, echoed on the response
	// and in error envelopes.
	return telemetry.WithRequestID(mux)
}

// handleList answers the registry listing: every recovered tenant with
// its served epoch and size.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	type row struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
		Nodes int    `json:"nodes"`
		Edges int    `json:"edges"`
		// Recovered is false for a tenant whose recovery failed; Error
		// carries its message, so the listing doubles as a fleet-health
		// view instead of silently hiding broken graphs.
		Recovered bool   `json:"recovered"`
		Error     string `json:"error,omitempty"`
		// Admission rejection counters, by reason.
		Overloaded  uint64 `json:"overloaded"`
		RateLimited uint64 `json:"rate_limited"`
		// Result-cache revalidation outcomes of reads at newer epochs:
		// entries retained untouched, incrementally regrown, and dropped.
		ResultRetained uint64 `json:"result_retained"`
		ResultRegrown  uint64 `json:"result_regrown"`
		ResultDropped  uint64 `json:"result_dropped"`
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		t := s.tenantFor(name)
		if t == nil {
			continue
		}
		rw := row{
			Name:        name,
			Overloaded:  t.overloaded.Load(),
			RateLimited: t.rateLimited.Load(),
		}
		if err := t.recover(); err != nil {
			rw.Error = err.Error()
		} else {
			rw.Recovered = true
			st := t.eng.Stats()
			rw.Epoch, rw.Nodes, rw.Edges = st.Epoch, st.Nodes, st.Edges
			rw.ResultRetained, rw.ResultRegrown, rw.ResultDropped =
				st.ResultRetained, st.ResultRegrown, st.ResultDropped
		}
		rows = append(rows, rw)
	}
	engine.WriteJSON(w, struct {
		Graphs []row `json:"graphs"`
	}{rows})
}

// dispatch serves /v1/graphs/{name}/{op}: it finds op's row in the
// engine's route table and calls its handler on the tenant's engine
// through its admission gate, recording per-tenant request metrics on
// the way out.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	name, op := r.PathValue("name"), r.PathValue("op")
	if !validName(name) {
		// Not recorded: both label values would be attacker-chosen.
		writeErr(w, http.StatusBadRequest, "bad_graph_name",
			fmt.Sprintf("invalid graph name %q", name), 0)
		return
	}
	rec := telemetry.NewStatusRecorder(w)
	w = rec
	rt := s.route(op)
	opLabel := op
	if rt == nil {
		opLabel = "_unknown" // unbounded client-supplied op values collapse
	}
	start := time.Now()
	defer func() {
		// The tenant label is resolved after serving against the
		// in-memory table only — never the disk: any request that
		// actually reached a tenant registered it via tenantFor by now
		// (a creating mutation included), so a map miss means a 404 or
		// an unknown-op probe, which collapses to "_unknown" rather
		// than minting a label (or paying a Stat syscall) per probed
		// name.
		tenantLabel := name
		if !s.registered(name) {
			tenantLabel = "_unknown"
		}
		ls := []telemetry.Label{
			{Key: "tenant", Value: tenantLabel},
			{Key: "op", Value: opLabel},
		}
		s.reg.Histogram("pathquery_request_seconds",
			"End-to-end request latency at the server, admission included.",
			ls...).Observe(time.Since(start))
		s.reg.Counter("pathquery_requests_total",
			"Requests served, by tenant, operation and HTTP status.",
			append(ls, telemetry.Label{Key: "code", Value: strconv.Itoa(rec.Code)})...).Inc()
		observeWorkloadClass(s.reg, r, tenantLabel, time.Since(start))
	}()

	if rt == nil {
		writeErr(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such operation %q", op), 0)
		return
	}
	// The method check runs before the tenant is looked up, so a wrong
	// method creates, recovers and admits nothing. Allow is what
	// ServeMux sends for the row's pattern.
	if r.Method != rt.Method && (rt.Method != http.MethodGet || r.Method != http.MethodHead) {
		allow := rt.Method
		if allow == http.MethodGet {
			allow += ", " + http.MethodHead
		}
		w.Header().Set("Allow", allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	if op == "query" && (r.URL.Query().Get("trace") == "1" || s.opt.SlowQuery > 0) {
		// The trace starts here — above admission — so the admission span
		// and the engine's spans share one total and sum to at most it.
		r = r.WithContext(telemetry.WithTrace(r.Context(), telemetry.NewTrace()))
	}
	if op == "stats" {
		s.handleStats(w, name)
		return
	}
	// Only a mutation creates a tenant, and only with a data directory;
	// everything else must find one.
	var created []engine.EdgeSpec // a creating mutation's edges, decoded once by the gate
	if !s.exists(name) {
		if op != "mutate" || s.opt.DataDir == "" {
			msg := fmt.Sprintf("no graph %q (a mutate creates it)", name)
			if s.opt.DataDir == "" {
				msg = fmt.Sprintf("no graph %q", name)
			}
			writeErr(w, http.StatusNotFound, "unknown_graph", msg, 0)
			return
		}
		var ok bool
		if created, ok = s.admitCreatingMutation(w, r, name); !ok {
			return
		}
	}
	t := s.tenantFor(name)
	if t == nil {
		writeErr(w, http.StatusServiceUnavailable, "shutting_down", "server is closing", 0)
		return
	}

	// Admission before recovery: a stampede on a cold tenant queues at
	// its gate rather than stacking up inside store recovery.
	waitStart := time.Now()
	err := t.gate.acquire(r.Context())
	wait := time.Since(waitStart)
	t.queueWait.Observe(wait)
	telemetry.TraceFrom(r.Context()).Observe("admission", wait)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			t.overloaded.Inc()
			writeErr(w, http.StatusServiceUnavailable, "overloaded",
				fmt.Sprintf("graph %q has no in-flight or queue capacity left", name),
				1*time.Second)
			return
		}
		writeErr(w, 499, "canceled", "client gave up while queued", 0)
		return
	}
	defer t.gate.release()

	if op == "mutate" {
		if ok, wait := t.mutate.take(); !ok {
			t.rateLimited.Inc()
			writeErr(w, http.StatusTooManyRequests, "rate_limited",
				fmt.Sprintf("graph %q mutation rate limit exceeded", name), wait)
			return
		}
	}
	if err := t.recover(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "recovery_failed",
			fmt.Sprintf("graph %q failed recovery: %v", name, err), 0)
		return
	}
	if created != nil {
		engine.ServeMutation(t.eng, w, created)
		return
	}
	rt.Serve(t.eng, engine.HandlerOptions{Tenant: name, SlowQuery: s.opt.SlowQuery, SlowLogf: s.logf}, w, r)
}

// route finds op's row in the engine's route table, or nil.
func (s *Server) route(op string) *engine.Route {
	for i := range s.routes {
		if s.routes[i].Name == op {
			return &s.routes[i]
		}
	}
	return nil
}

// admitCreatingMutation enforces the global tenant cap, then decodes and
// validates a mutation aimed at a graph that does not exist yet with the
// engine's own /mutate decoding, so a malformed or empty body is turned
// away before any durable state exists. It returns the edges for the
// engine to apply and whether to proceed.
func (s *Server) admitCreatingMutation(w http.ResponseWriter, r *http.Request, name string) ([]engine.EdgeSpec, bool) {
	if s.opt.MaxTenants > 0 {
		s.mu.Lock()
		n := len(s.tenants)
		s.mu.Unlock()
		if n >= s.opt.MaxTenants {
			writeErr(w, http.StatusServiceUnavailable, "tenant_limit",
				fmt.Sprintf("tenant limit %d reached; graph %q not created", s.opt.MaxTenants, name), 0)
			return nil, false
		}
	}
	edges, ok := engine.DecodeMutation(w, r)
	if ok && len(edges) == 0 {
		writeErr(w, http.StatusBadRequest, "empty_mutation",
			fmt.Sprintf("an empty mutation does not create graph %q", name), 0)
		return nil, false
	}
	return edges, ok
}

// handleStats answers the tenant's engine counters plus its store's
// durability stats (epoch, checkpoint epoch, WAL size, recovery cost),
// which an in-memory tenant omits.
func (s *Server) handleStats(w http.ResponseWriter, name string) {
	if !s.exists(name) {
		writeErr(w, http.StatusNotFound, "unknown_graph",
			fmt.Sprintf("no graph %q", name), 0)
		return
	}
	t := s.tenantFor(name)
	if t == nil {
		writeErr(w, http.StatusServiceUnavailable, "shutting_down", "server is closing", 0)
		return
	}
	if err := t.recover(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "recovery_failed",
			fmt.Sprintf("graph %q failed recovery: %v", name, err), 0)
		return
	}
	var st *store.Stats
	if t.store != nil {
		stats := t.store.Stats()
		st = &stats
	}
	engine.WriteJSON(w, struct {
		engine.Stats
		Store     *store.Stats   `json:"store,omitempty"`
		Admission admissionStats `json:"admission"`
	}{t.eng.Stats(), st, admissionStats{
		InFlight:    t.gate.inFlight(),
		Queued:      t.gate.waiting(),
		Overloaded:  t.overloaded.Load(),
		RateLimited: t.rateLimited.Load(),
	}})
}

// admissionStats is the admission-control block of GET stats: the
// gate's instantaneous occupancy and the cumulative rejections.
type admissionStats struct {
	InFlight    int    `json:"in_flight"`
	Queued      int64  `json:"queued"`
	Overloaded  uint64 `json:"overloaded"`
	RateLimited uint64 `json:"rate_limited"`
}

// writeErr answers the engine's structured error envelope, with a
// Retry-After hint (rounded up to whole seconds) when the client should
// back off and try again.
func writeErr(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	engine.WriteError(w, &engine.APIError{Code: code, Status: status, Message: message})
}
