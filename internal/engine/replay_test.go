package engine

import (
	"math/rand"
	"testing"
	"time"
)

func TestWeightedChooserZeroNeverFires(t *testing.T) {
	c, err := NewWeightedChooser([]float64{3, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 4)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[c.Choose(rng.Float64())]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight indices drawn: %v", counts)
	}
	// Skew ≈ requested: 3:1 within 5% relative tolerance at 200k draws.
	ratio := float64(counts[0]) / float64(counts[2])
	if ratio < 2.85 || ratio > 3.15 {
		t.Fatalf("weight ratio %.3f, want ≈ 3 (counts %v)", ratio, counts)
	}
	// Boundary draws stay in range.
	if got := c.Choose(0); got != 0 {
		t.Fatalf("choose(0) = %d, want 0", got)
	}
	if got := c.Choose(0.999999999); got != 2 {
		t.Fatalf("choose(→1) = %d, want 2", got)
	}
}

func TestWeightedChooserRejectsDegenerate(t *testing.T) {
	if _, err := NewWeightedChooser([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewWeightedChooser([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestRunLoadWeightedQueries(t *testing.T) {
	e := New(buildFixture(), Options{})
	report, err := RunLoad(e, LoadConfig{
		Clients:           2,
		RequestsPerClient: 50,
		Queries:           []string{"tram·cinema", "bus·cinema"},
		Weights:           []float64{1, 0},
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Selects != 100 {
		t.Fatalf("selects %d, want 100", report.Selects)
	}
	// The zero-weight query must never have executed: its first
	// evaluation after the run is a result-cache miss, while the weighted
	// query is already cached from the run itself.
	if r, err := evalNodes(e, "bus·cinema"); err != nil || r.Cached {
		t.Fatalf("zero-weight query was executed during the run (cached=%v, err=%v)", r.Cached, err)
	}
	if r, err := evalNodes(e, "tram·cinema"); err != nil || !r.Cached {
		t.Fatalf("weighted query not served from the run's cache (cached=%v, err=%v)", r.Cached, err)
	}
	if _, err := RunLoad(e, LoadConfig{
		Clients: 1, RequestsPerClient: 1,
		Queries: []string{"tram·cinema"}, Weights: []float64{1, 2},
	}); err == nil {
		t.Fatal("mismatched weights length accepted")
	}
	if _, err := RunLoad(e, LoadConfig{
		Clients: 1, RequestsPerClient: 1,
		Queries: []string{"tram·cinema"}, Weights: []float64{0},
	}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func replayFixtureSpec() *ReplaySpec {
	return &ReplaySpec{Entries: []ReplayEntry{
		{Class: "AQ1", Expr: "tram·cinema", Semantics: "nodes"},
		{Class: "AQ7", Expr: "tram+bus", Semantics: "nodes"},
		{Class: "AQ7", Expr: "bus+cinema", Semantics: "nodes"},
		{Class: "AQ27", Expr: "bus·bus*", Semantics: "pairsFrom", From: "N5"},
	}}
}

func TestRunLoadReplayDeterministicPerClassCounts(t *testing.T) {
	run := func() map[string]uint64 {
		e := New(buildFixture(), Options{})
		report, err := RunLoad(e, LoadConfig{
			Clients:           4,
			RequestsPerClient: 100,
			Replay:            replayFixtureSpec(),
			MutateRate:        0.1,
			Seed:              7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(4 * 100); report.Requests != want {
			t.Fatalf("requests %d, want exactly %d", report.Requests, want)
		}
		counts := make(map[string]uint64)
		for class, snap := range report.ClassLatency {
			counts[class] = snap.Count()
		}
		return counts
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("no per-class latency reported")
	}
	var total uint64
	for class, n := range first {
		if second[class] != n {
			t.Fatalf("class %s: %d vs %d issues across identical runs (first %v, second %v)",
				class, n, second[class], first, second)
		}
		total += n
	}
	if len(second) != len(first) {
		t.Fatalf("class sets differ: %v vs %v", first, second)
	}
	// Every non-mutation request lands in exactly one class histogram.
	e := New(buildFixture(), Options{})
	report, err := RunLoad(e, LoadConfig{
		Clients: 4, RequestsPerClient: 100, Replay: replayFixtureSpec(), MutateRate: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != report.Selects {
		t.Fatalf("class counts sum %d, selects %d", total, report.Selects)
	}
}

func TestRunLoadReplayClassWeights(t *testing.T) {
	e := New(buildFixture(), Options{})
	spec := replayFixtureSpec()
	spec.ClassWeights = map[string]float64{"AQ1": 1, "AQ7": 0, "AQ27": 1}
	report, err := RunLoad(e, LoadConfig{
		Clients:           2,
		RequestsPerClient: 200,
		Replay:            spec,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
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

func TestBuildReplayMixValidation(t *testing.T) {
	e := New(buildFixture(), Options{})
	if _, err := buildReplayMix(e, &ReplaySpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := buildReplayMix(e, &ReplaySpec{Entries: []ReplayEntry{
		{Class: "AQ1", Expr: "tram·(", Semantics: "nodes"},
	}}); err == nil {
		t.Fatal("unparseable expr accepted")
	}
	if _, err := buildReplayMix(e, &ReplaySpec{Entries: []ReplayEntry{
		{Class: "AQ1", Expr: "tram", Semantics: "lies"},
	}}); err == nil {
		t.Fatal("unknown semantics accepted")
	}
	if _, err := buildReplayMix(e, &ReplaySpec{Entries: []ReplayEntry{
		{Class: "AQ1", Expr: "tram", Semantics: "pairsFrom", From: "ghost"},
	}}); err == nil {
		t.Fatal("unknown anchor accepted")
	}
	// Filtering everything out must error, not divide by zero.
	if _, err := buildReplayMix(e, &ReplaySpec{
		Entries:  []ReplayEntry{{Class: "AQ1", Expr: "tram", Semantics: "nodes"}},
		Anchored: AnchoredOnly,
	}); err == nil {
		t.Fatal("fully filtered spec accepted")
	}
}

func TestRunLoadReplayAnchoring(t *testing.T) {
	for _, tc := range []struct {
		anchored Anchoring
		wantFrom bool
		classes  []string
	}{
		{AnchoredOnly, true, []string{"AQ27"}},
		{AnchoredNone, false, []string{"AQ1", "AQ7"}},
	} {
		e := New(buildFixture(), Options{})
		spec := replayFixtureSpec()
		spec.Anchored = tc.anchored
		report, err := RunLoad(e, LoadConfig{
			Clients: 2, RequestsPerClient: 50, Replay: spec, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
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

func TestRunLoadRequestsPerClientIgnoresDuration(t *testing.T) {
	e := New(buildFixture(), Options{})
	start := time.Now()
	report, err := RunLoad(e, LoadConfig{
		Clients:           2,
		RequestsPerClient: 10,
		Duration:          10 * time.Second, // must not stretch the run
		Queries:           []string{"tram·cinema"},
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 20 {
		t.Fatalf("requests %d, want 20", report.Requests)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("fixed-count run waited out the duration")
	}
}
