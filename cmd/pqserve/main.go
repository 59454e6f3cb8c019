// Command pqserve runs the concurrent query-serving engine
// (internal/engine) as an HTTP server, in one of two modes.
//
// Multi-tenant durable mode (-data): a registry of named graphs, each
// one backed by a write-ahead log and checkpoints under <data>/<name>/
// (internal/store) and recovered on startup to its exact last published
// epoch:
//
//	pqserve -data /var/lib/pathquery -addr :8080
//
//	POST /v1/graphs/{name}/query   {"query": "a·b*", "semantics": ...}
//	POST /v1/graphs/{name}/batch   {"requests": [...]}
//	POST /v1/graphs/{name}/mutate  {"edges": [...]}  (creates the graph)
//	POST /v1/graphs/{name}/learn   {"pos": [...], "neg": [...]}
//	GET  /v1/graphs/{name}/stats   engine counters + durability stats
//	GET  /v1/graphs/{name}/plans
//	GET  /v1/graphs                registry listing
//	GET  /healthz                  liveness
//	GET  /readyz                   503 until all tenant recoveries finish
//
// Per-tenant admission control isolates tenants: -max-inflight and
// -queue-depth bound concurrent requests (overflow answers 503
// "overloaded" + Retry-After), -mutate-rate/-mutate-burst bound the
// mutation rate (429 "rate_limited" + Retry-After). See internal/server.
//
// Single-graph volatile mode (legacy): one engine over a graph loaded
// from TSV or generated synthetically, no durability:
//
//	pqserve -graph data.tsv -addr :8080
//	pqserve -synthetic 10000 -seed 1
//
// with the engine's endpoints at the root (POST /v1/query, /v1/batch,
// /mutate, /learn, GET /stats, /plans, /healthz — see
// internal/engine.NewHandler) plus /readyz, which is immediately ready.
//
// In both modes the server is a real http.Server: read/write timeouts
// bound slow clients, every request's context carries an -eval-timeout
// deadline (a disconnecting client or an exceeded deadline aborts the
// product traversal; the latter answers 504 deadline_exceeded), and
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/server"
	"pathquery/internal/telemetry"
)

var (
	addr      = flag.String("addr", ":8080", "listen address")
	dataDir   = flag.String("data", "", "multi-tenant durable mode: WAL + checkpoint root directory")
	graphPath = flag.String("graph", "", "single-graph mode: graph TSV file (see graph.ReadTSV format)")
	synthetic = flag.Int("synthetic", 0, "single-graph mode: serve a synthetic scale-free graph of this many nodes")
	seed      = flag.Int64("seed", 1, "synthetic generator seed")
	cacheCap  = flag.Int("result-cache", 4096, "result cache capacity (entries, per graph)")

	checkpointEvery = flag.Int("checkpoint-every", 256,
		"cut a checkpoint every n WAL records (-data mode; negative disables)")
	maxInFlight = flag.Int("max-inflight", 64, "per-tenant in-flight request cap (-data mode)")
	queueDepth  = flag.Int("queue-depth", 128,
		"per-tenant admission queue beyond the in-flight cap (-data mode; negative sheds immediately)")
	mutateRate  = flag.Float64("mutate-rate", 0, "per-tenant mutations per second (-data mode; 0 = unlimited)")
	mutateBurst = flag.Int("mutate-burst", 16, "per-tenant mutation burst (-data mode)")
	maxTenants  = flag.Int("max-tenants", 1024,
		"global cap on registered graphs (-data mode; negative = unlimited)")

	slowQuery = flag.Duration("slow-query", 0,
		"log every query at least this slow as one structured JSON line (0 = off)")
	opsAddr = flag.String("ops-addr", "",
		"optional ops listener serving /metrics, /debug/pprof/ and /debug/vars (e.g. localhost:6060)")

	readTimeout  = flag.Duration("read-timeout", 15*time.Second, "http.Server ReadTimeout")
	writeTimeout = flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout")
	evalTimeout  = flag.Duration("eval-timeout", 30*time.Second,
		"per-request evaluation deadline (0 = none); exceeded evaluations abort and answer 504 deadline_exceeded")
	shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second,
		"grace period for in-flight requests on SIGINT/SIGTERM")
)

// instrument records per-request metrics for the single-graph mode —
// the counterpart of the multi-tenant server's dispatch recording, with
// the fixed tenant "default" and the op derived from the route table
// (unknown paths collapse to "other" so label cardinality stays
// bounded).
func instrument(reg *telemetry.Registry, next http.Handler) http.Handler {
	ops := map[string]string{
		"/v1/query": "query", "/v1/batch": "batch",
		"/mutate": "mutate", "/learn": "learn",
		"/stats": "stats", "/plans": "plans",
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := ops[r.URL.Path]
		if !ok {
			op = "other"
		}
		rec := telemetry.NewStatusRecorder(w)
		start := time.Now()
		next.ServeHTTP(rec, r)
		ls := []telemetry.Label{{Key: "tenant", Value: "default"}, {Key: "op", Value: op}}
		reg.Histogram("pathquery_request_seconds",
			"End-to-end request latency at the server, admission included.",
			ls...).Observe(time.Since(start))
		reg.Counter("pathquery_requests_total",
			"Requests served, by tenant, operation and HTTP status.",
			append(ls, telemetry.Label{Key: "code", Value: strconv.Itoa(rec.Code)})...).Inc()
		server.ObserveWorkloadClass(reg, r, "default", time.Since(start))
	})
}

// withDeadline bounds every request context: http.Server's WriteTimeout
// only closes the connection, it never cancels r.Context(), so without
// this wrapper a well-connected client issuing a pathological query would
// hold a core until the traversal finished on its own.
func withDeadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pqserve: ")
	flag.Parse()

	var handler http.Handler
	var closeFn func() error
	var reg *telemetry.Registry
	switch {
	case *dataDir != "" && (*graphPath != "" || *synthetic > 0):
		log.Fatal("-data is mutually exclusive with -graph/-synthetic")
	case *dataDir != "":
		srv, err := server.New(server.Options{
			DataDir:         *dataDir,
			CheckpointEvery: *checkpointEvery,
			ResultCacheCap:  *cacheCap,
			MaxInFlight:     *maxInFlight,
			QueueDepth:      *queueDepth,
			MutateRate:      *mutateRate,
			MutateBurst:     *mutateBurst,
			MaxTenants:      *maxTenants,
			SlowQuery:       *slowQuery,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Serve immediately; /readyz turns ready once every existing
		// tenant has replayed its WAL (requests racing recovery trigger
		// their own tenant's recovery lazily and just wait for it).
		go srv.RecoverAll()
		handler = srv.Handler()
		closeFn = srv.Close
		reg = srv.Registry()
		log.Printf("serving multi-tenant registry on %s from %s", *addr, *dataDir)
	case *graphPath != "" && *synthetic > 0:
		log.Fatal("-graph and -synthetic are mutually exclusive")
	case *graphPath != "" || *synthetic > 0:
		var g *graph.Graph
		if *graphPath != "" {
			f, err := os.Open(*graphPath)
			if err != nil {
				log.Fatal(err)
			}
			g, err = graph.ReadTSV(f, nil)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
		} else {
			g = datasets.Synthetic(*synthetic, *seed)
		}
		e := engine.New(g, engine.Options{ResultCacheCap: *cacheCap})
		st := e.Stats()
		log.Printf("serving on %s: epoch %d, %d nodes, %d edges, %d labels",
			*addr, st.Epoch, st.Nodes, st.Edges, g.Alphabet().Size())
		reg = telemetry.NewRegistry()
		e.RegisterMetrics(reg, telemetry.Label{Key: "tenant", Value: "default"})
		mux := http.NewServeMux()
		mux.Handle("/", engine.NewHandlerWith(e, engine.HandlerOptions{
			Tenant:    "default",
			SlowQuery: *slowQuery,
			SlowLogf:  log.Printf,
		}))
		mux.Handle("GET /metrics", reg.Handler())
		// A volatile single-graph server is ready the moment it listens.
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		handler = telemetry.WithRequestID(instrument(reg, mux))
		closeFn = func() error { return nil }
	default:
		log.Fatal("need -data DIR, -graph FILE or -synthetic N")
	}

	if *opsAddr != "" {
		// The ops surface listens separately so profiling and scraping
		// need not share the serving listener (or be exposed with it).
		ops := http.NewServeMux()
		ops.Handle("GET /metrics", reg.Handler())
		ops.HandleFunc("/debug/pprof/", pprof.Index)
		ops.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		ops.HandleFunc("/debug/pprof/profile", pprof.Profile)
		ops.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		ops.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ops.Handle("GET /debug/vars", expvar.Handler())
		go func() {
			log.Printf("ops listener on %s (/metrics, /debug/pprof/, /debug/vars)", *opsAddr)
			if err := http.ListenAndServe(*opsAddr, ops); err != nil {
				log.Printf("ops listener: %v", err)
			}
		}()
	}

	if *evalTimeout > 0 {
		handler = withDeadline(handler, *evalTimeout)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		log.Printf("shutting down (waiting up to %v for in-flight requests)", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
		if err := closeFn(); err != nil {
			log.Printf("closing stores: %v", err)
		}
		log.Printf("bye")
	}
}
