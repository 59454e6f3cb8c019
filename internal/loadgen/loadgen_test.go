package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/server"
	"pathquery/internal/telemetry"
)

func fixture() *graph.Graph {
	g := graph.New(nil)
	g.AddEdgeByName("N1", "tram", "N4")
	g.AddEdgeByName("N2", "bus", "N4")
	g.AddEdgeByName("N4", "cinema", "C1")
	g.AddEdgeByName("N3", "tram", "N5")
	g.AddEdgeByName("N5", "bus", "N5")
	return g
}

func fixtureSpec() *engine.ReplaySpec {
	return &engine.ReplaySpec{Entries: []engine.ReplayEntry{
		{Class: "AQ1", Expr: "tram·cinema", Semantics: "nodes"},
		{Class: "AQ7", Expr: "tram+bus", Semantics: "nodes"},
		{Class: "AQ7", Expr: "bus+cinema", Semantics: "nodes"},
		{Class: "AQ27", Expr: "bus·bus*", Semantics: "pairsFrom", From: "N5"},
	}}
}

// queries is the mix of one class per query, each class named after
// its query, drawn uniformly.
func queries(exprs ...string) *engine.ReplaySpec {
	spec := &engine.ReplaySpec{}
	for _, q := range exprs {
		spec.Entries = append(spec.Entries, engine.ReplayEntry{Class: q, Expr: q})
	}
	return spec
}

func runInProcess(t *testing.T, cfg Config) Report {
	t.Helper()
	r, err := Run(InProcess(engine.New(fixture(), engine.Options{})), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func classCounts(r Report) map[string]uint64 {
	counts := make(map[string]uint64)
	for class, snap := range r.ClassLatency {
		counts[class] = snap.Count()
	}
	return counts
}

func TestRunDeterministicPerClassCounts(t *testing.T) {
	cfg := Config{Clients: 4, RequestsPerClient: 100, Mix: fixtureSpec(), MutateRate: 0.1, Seed: 7}
	first, second := runInProcess(t, cfg), runInProcess(t, cfg)
	if want := uint64(4 * 100); first.Requests != want {
		t.Fatalf("requests %d, want exactly %d", first.Requests, want)
	}
	a, b := classCounts(first), classCounts(second)
	if len(a) == 0 {
		t.Fatal("no per-class latency reported")
	}
	var total uint64
	for class, n := range a {
		if b[class] != n {
			t.Fatalf("class %s: %d vs %d issues across identical runs (first %v, second %v)",
				class, n, b[class], a, b)
		}
		total += n
	}
	if len(b) != len(a) {
		t.Fatalf("class sets differ: %v vs %v", a, b)
	}
	// Every non-mutation request lands in exactly one class histogram.
	if total != first.Selects {
		t.Fatalf("class counts sum %d, selects %d", total, first.Selects)
	}
}

func TestRunClassWeights(t *testing.T) {
	spec := fixtureSpec()
	spec.ClassWeights = map[string]float64{"AQ1": 1, "AQ7": 0, "AQ27": 1}
	report := runInProcess(t, Config{Clients: 2, RequestsPerClient: 200, Mix: spec, Seed: 3})
	if n := report.ClassLatency["AQ7"].Count(); n != 0 {
		t.Fatalf("zero-weight class AQ7 issued %d requests", n)
	}
	a, b := report.ClassLatency["AQ1"].Count(), report.ClassLatency["AQ27"].Count()
	if a == 0 || b == 0 {
		t.Fatalf("weighted classes missing: AQ1=%d AQ27=%d", a, b)
	}
	// Equal class weights ⇒ ≈ equal class counts even though AQ1 has one
	// entry: class weight is split across a class's entries.
	ratio := float64(a) / float64(b)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("class skew %.2f for equal weights (AQ1=%d AQ27=%d)", ratio, a, b)
	}
}

// TestRunRejectsInvalidMix: a mix the driver cannot draw from fails
// before any request, and an entry the graph cannot answer fails the
// request that draws it; either way Run ends with an error.
func TestRunRejectsInvalidMix(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  *engine.ReplaySpec
	}{
		{"nil mix", nil},
		{"empty spec", &engine.ReplaySpec{}},
		{"unparseable expr", &engine.ReplaySpec{Entries: []engine.ReplayEntry{
			{Class: "AQ1", Expr: "tram·(", Semantics: "nodes"}}}},
		{"unknown semantics", &engine.ReplaySpec{Entries: []engine.ReplayEntry{
			{Class: "AQ1", Expr: "tram", Semantics: "lies"}}}},
		{"unknown anchor", &engine.ReplaySpec{Entries: []engine.ReplayEntry{
			{Class: "AQ1", Expr: "tram", Semantics: "pairsFrom", From: "ghost"}}}},
		// Filtering everything out, by tier or by weight, must error, not
		// divide by zero.
		{"fully filtered by tier", &engine.ReplaySpec{
			Entries:  []engine.ReplayEntry{{Class: "AQ1", Expr: "tram", Semantics: "nodes"}},
			Anchored: engine.AnchoredOnly}},
		{"all-zero class weights", &engine.ReplaySpec{
			Entries:      []engine.ReplayEntry{{Class: "AQ1", Expr: "tram", Semantics: "nodes"}},
			ClassWeights: map[string]float64{"AQ1": 0}}},
		{"negative class weight", &engine.ReplaySpec{
			Entries:      []engine.ReplayEntry{{Class: "AQ1", Expr: "tram", Semantics: "nodes"}},
			ClassWeights: map[string]float64{"AQ1": -1}}},
	} {
		e := engine.New(fixture(), engine.Options{})
		if _, err := Run(InProcess(e), Config{Clients: 1, RequestsPerClient: 1, Mix: tc.mix}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestRunAnchoring(t *testing.T) {
	for _, tc := range []struct {
		anchored engine.Anchoring
		classes  []string
	}{
		{engine.AnchoredOnly, []string{"AQ27"}},
		{engine.AnchoredNone, []string{"AQ1", "AQ7"}},
	} {
		spec := fixtureSpec()
		spec.Anchored = tc.anchored
		report := runInProcess(t, Config{Clients: 2, RequestsPerClient: 50, Mix: spec, Seed: 5})
		for class, snap := range report.ClassLatency {
			ok := false
			for _, want := range tc.classes {
				if class == want {
					ok = true
				}
			}
			if !ok && snap.Count() > 0 {
				t.Fatalf("anchoring %v issued class %s", tc.anchored, class)
			}
		}
	}
}

func TestRunRequestsPerClientIgnoresDuration(t *testing.T) {
	start := time.Now()
	report := runInProcess(t, Config{
		Clients:           2,
		RequestsPerClient: 10,
		Duration:          10 * time.Second, // must not stretch the run
		Mix:               queries("tram·cinema"),
		Seed:              1,
	})
	if report.Requests != 20 {
		t.Fatalf("requests %d, want 20", report.Requests)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("fixed-count run waited out the duration")
	}
}

// TestRunHistogramPercentiles: the report's percentiles are exactly the
// quantiles of the merged per-class histograms it carries (within one
// √2 bucket of the exact value), and the class snapshots account for
// every request.
func TestRunHistogramPercentiles(t *testing.T) {
	report := runInProcess(t, Config{
		Clients:    4,
		Duration:   100 * time.Millisecond,
		Mix:        queries("tram·cinema", "bus·cinema"),
		MutateRate: 0.1,
		Seed:       1,
	})
	if report.Requests == 0 || report.Selects == 0 || report.Mutations == 0 {
		t.Fatalf("degenerate run: %+v", report)
	}
	if got := report.SelectLatency.Count(); got != report.Selects {
		t.Errorf("select histogram count %d, want %d", got, report.Selects)
	}
	if got := report.MutateLatency.Count(); got != report.Mutations {
		t.Errorf("mutate histogram count %d, want %d", got, report.Mutations)
	}
	if report.Requests != report.Selects+report.Mutations {
		t.Errorf("requests %d != selects %d + mutations %d",
			report.Requests, report.Selects, report.Mutations)
	}

	merged := report.SelectLatency
	merged.Merge(&report.MutateLatency)
	for _, c := range []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"p50", report.P50, merged.Quantile(0.50)},
		{"p90", report.P90, merged.Quantile(0.90)},
		{"p99", report.P99, merged.Quantile(0.99)},
		{"max", report.Max, time.Duration(merged.Max)},
	} {
		if c.got != c.want {
			t.Errorf("%s: report %v, merged histogram %v", c.name, c.got, c.want)
		}
	}
	if report.P50 > report.P90 || report.P90 > report.P99 || report.P99 > report.Max {
		t.Errorf("non-monotone percentiles: %v %v %v %v",
			report.P50, report.P90, report.P99, report.Max)
	}
	// The within-one-bucket accuracy contract, spot-checked end to end:
	// a percentile estimate can never land more than one bucket from an
	// actual observation's bucket range.
	if telemetry.BucketOf(report.Max) > telemetry.NumBuckets {
		t.Errorf("max %v outside histogram range", report.Max)
	}
}

func TestRunSmoke(t *testing.T) {
	report := runInProcess(t, Config{
		Clients:    4,
		Duration:   50 * time.Millisecond,
		Mix:        queries("tram·cinema", "bus·cinema"),
		MutateRate: 0.1,
		Seed:       1,
	})
	if report.Requests == 0 || report.Throughput <= 0 {
		t.Fatalf("empty load report: %+v", report)
	}
	if report.Mutations == 0 {
		t.Errorf("MutateRate produced no mutations: %+v", report)
	}
	e := engine.New(fixture(), engine.Options{})
	if _, err := Run(InProcess(e), Config{Mix: queries("(")}); err == nil {
		t.Error("bad load query not rejected")
	}
}

// serveFixture serves a fresh fixture graph as "default" through the
// multi-tenant server, behind wrap, and returns its base URL.
func serveFixture(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("default", engine.New(fixture(), engine.Options{})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL + "/v1/graphs/default"
}

func unwrapped(h http.Handler) http.Handler { return h }

// TestRunTransportsAgree: with the same seed and fixed request counts,
// one run in process and one over HTTP issue the same number of
// mutations and the same reads per class.
func TestRunTransportsAgree(t *testing.T) {
	cfg := Config{Clients: 4, RequestsPerClient: 100, Mix: fixtureSpec(), MutateRate: 0.1, Seed: 11}
	local := runInProcess(t, cfg)
	base := serveFixture(t, unwrapped)
	remote, err := Run(HTTP(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if local.Selects != remote.Selects || local.Mutations != remote.Mutations {
		t.Fatalf("in process %d selects, %d mutations; over HTTP %d, %d",
			local.Selects, local.Mutations, remote.Selects, remote.Mutations)
	}
	if local.Mutations == 0 {
		t.Fatal("no mutation issued")
	}
	// Repeat reads are result-cache hits on both targets; over HTTP the
	// driver reads that from the answer's "cached" member.
	if local.CachedLatency.Count() == 0 || remote.CachedLatency.Count() == 0 {
		t.Fatalf("cached reads: %d in process, %d over HTTP; want some on both",
			local.CachedLatency.Count(), remote.CachedLatency.Count())
	}
	a, b := classCounts(local), classCounts(remote)
	if len(a) != len(b) {
		t.Fatalf("class sets differ: in process %v, over HTTP %v", a, b)
	}
	for class, n := range a {
		if b[class] != n {
			t.Fatalf("class %s: %d reads in process, %d over HTTP (%v vs %v)", class, n, b[class], a, b)
		}
	}
	// The server saw the writes: its epoch advanced once per mutation.
	st, err := HTTP(base).Stats(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mutations != remote.Mutations {
		t.Fatalf("server counted %d mutations, driver %d", st.Mutations, remote.Mutations)
	}
}

// counting counts the requests a driver's clients start.
type counting struct {
	Target
	started atomic.Int64
}

func (c *counting) Read(ctx context.Context, re *engine.ReplayEntry) (bool, error) {
	c.started.Add(1)
	return c.Target.Read(ctx, re)
}

// TestRunFirstErrorStopsEveryClient: a request the graph answers 404
// ends Run with that error, and every client stops with it instead of
// running out the duration.
func TestRunFirstErrorStopsEveryClient(t *testing.T) {
	cfg := Config{Clients: 4, Duration: time.Minute, Mix: queries("tram·cinema"), Seed: 1}

	// A graph the server does not hold answers 404 to the first request.
	base := serveFixture(t, unwrapped)
	_, err := Run(HTTP(strings.TrimSuffix(base, "default")+"ghost"), cfg)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("run against an unknown graph: err %v, want a 404", err)
	}

	// The graph answers its 50th read 404 and every other one 200: one
	// client fails, and the other three must stop with it.
	var reads atomic.Int64
	base = serveFixture(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/query") && reads.Add(1) == 50 {
				http.NotFound(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	target := &counting{Target: HTTP(base)}
	start := time.Now()
	_, err = Run(target, cfg)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("run with a failing read: err %v, want a 404", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("run took %v after its first error; the clients ran on", d)
	}
	// Run returned only after every client did: none starts a request.
	n := target.started.Load()
	time.Sleep(50 * time.Millisecond)
	if got := target.started.Load(); got != n {
		t.Fatalf("requests still starting after Run returned: %d, then %d", n, got)
	}
}
