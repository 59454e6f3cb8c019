// Command pqserve runs the concurrent query-serving engine
// (internal/engine) as an HTTP server. Every graph it serves is a
// tenant of one internal/server registry, reached at
// /v1/graphs/{name}/:
//
//	POST /v1/graphs/{name}/query   {"query": "a·b*", "semantics": ...}
//	POST /v1/graphs/{name}/batch   {"requests": [...]}
//	POST /v1/graphs/{name}/mutate  {"edges": [...]}  (creates a -data graph)
//	POST /v1/graphs/{name}/learn   {"pos": [...], "neg": [...]}
//	GET  /v1/graphs/{name}/stats   engine counters (+ durability stats)
//	GET  /v1/graphs/{name}/plans
//	GET  /v1/graphs                registry listing
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  liveness
//	GET  /readyz                   503 until all tenant recoveries finish
//
// The graphs come from one of two sources. With -data, each graph is
// durable: a write-ahead log and checkpoints under <data>/<name>/
// (internal/store), recovered on startup to its exact last published
// epoch, and a mutate to a new name creates one:
//
//	pqserve -data /var/lib/pathquery -addr :8080
//
// With -graph or -synthetic, one graph loaded from TSV or generated
// synthetically is served in memory as the tenant "default", with no
// durability; /readyz is ready at once:
//
//	pqserve -graph data.tsv -addr :8080
//	pqserve -synthetic 10000 -seed 1
//
// Per-tenant admission control isolates tenants in both: -max-inflight
// and -queue-depth bound concurrent requests (overflow answers 503
// "overloaded" + Retry-After), -mutate-rate/-mutate-burst bound the
// mutation rate (429 "rate_limited" + Retry-After). See internal/server.
//
// The server is a real http.Server: read/write timeouts bound slow
// clients, every request's context carries an -eval-timeout deadline (a
// disconnecting client or an exceeded deadline aborts the product
// traversal; the latter answers 504 deadline_exceeded), and
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/server"
)

var (
	addr      = flag.String("addr", ":8080", "listen address")
	dataDir   = flag.String("data", "", "durable graphs: WAL + checkpoint root directory")
	graphPath = flag.String("graph", "", "serve this graph TSV file (see graph.ReadTSV format) in memory as the graph \"default\"")
	synthetic = flag.Int("synthetic", 0, "serve a synthetic scale-free graph of this many nodes in memory as the graph \"default\"")
	seed      = flag.Int64("seed", 1, "synthetic generator seed")
	cacheCap  = flag.Int("result-cache", 4096, "result cache capacity (entries, per graph)")

	checkpointEvery = flag.Int("checkpoint-every", 256,
		"cut a checkpoint every n WAL records (-data mode; negative disables)")
	maxInFlight = flag.Int("max-inflight", 64, "per-tenant in-flight request cap")
	queueDepth  = flag.Int("queue-depth", 128,
		"per-tenant admission queue beyond the in-flight cap (negative sheds immediately)")
	mutateRate  = flag.Float64("mutate-rate", 0, "per-tenant mutations per second (0 = unlimited)")
	mutateBurst = flag.Int("mutate-burst", 16, "per-tenant mutation burst")
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

	switch {
	case *dataDir != "" && (*graphPath != "" || *synthetic > 0):
		log.Fatal("-data is mutually exclusive with -graph/-synthetic")
	case *graphPath != "" && *synthetic > 0:
		log.Fatal("-graph and -synthetic are mutually exclusive")
	case *dataDir == "" && *graphPath == "" && *synthetic <= 0:
		log.Fatal("need -data DIR, -graph FILE or -synthetic N")
	}
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
	if *dataDir != "" {
		log.Printf("serving multi-tenant registry on %s from %s", *addr, *dataDir)
	} else {
		g := loadGraph()
		e := engine.New(g, engine.Options{ResultCacheCap: *cacheCap})
		if err := srv.AddEngine("default", e); err != nil {
			log.Fatal(err)
		}
		st := e.Stats()
		log.Printf("serving graph \"default\" on %s: epoch %d, %d nodes, %d edges, %d labels",
			*addr, st.Epoch, st.Nodes, st.Edges, g.Alphabet().Size())
	}
	// Serve immediately; /readyz turns ready once every existing
	// tenant has replayed its WAL (requests racing recovery trigger
	// their own tenant's recovery lazily and just wait for it).
	go srv.RecoverAll()
	handler := srv.Handler()

	if *opsAddr != "" {
		// The ops surface listens separately so profiling and scraping
		// need not share the serving listener (or be exposed with it).
		ops := http.NewServeMux()
		ops.Handle("GET /metrics", srv.Registry().Handler())
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
	hs := &http.Server{
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
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		log.Printf("shutting down (waiting up to %v for in-flight requests)", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("closing stores: %v", err)
		}
		log.Printf("bye")
	}
}

// loadGraph reads -graph or generates -synthetic.
func loadGraph() *graph.Graph {
	if *synthetic > 0 {
		return datasets.Synthetic(*synthetic, *seed)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadTSV(f, nil)
	if err != nil {
		log.Fatal(err)
	}
	return g
}
