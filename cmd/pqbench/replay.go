package main

// Deterministic workload replay: drive a recorded pqworkload file
// against the in-process engine (default) or one graph of a live
// server (-replay-addr, the graph's /v1/graphs/{name} base URL),
// reporting latency per abstract query class. The
// in-process path goes through engine.RunLoad's ReplaySpec axis; the
// HTTP path mirrors its closed loop client-for-client — same per-client
// seeding, same draw sequence — tagging every request with the
// X-Workload-Class header so the server's /metrics splits latency by
// class on its side too.

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/server"
	"pathquery/internal/telemetry"
	"pathquery/internal/workload"
)

var (
	replayFile = flag.String("replay", "", "replay this pqworkload file and report per-class latency")
	replayMix  = flag.String("replay-mix", "",
		"class-weight mix, e.g. AQ1=3,AQ7=1,AQ28=0 (unlisted classes weigh 1, 0 excludes)")
	replayAddr = flag.String("replay-addr", "",
		"replay over HTTP against this graph's base URL (e.g. http://localhost:8080/v1/graphs/default) instead of in-process")
	replayClients  = flag.Int("replay-clients", 8, "closed-loop replay clients")
	replayDuration = flag.Duration("replay-duration", 5*time.Second, "replay duration (time-bounded mode)")
	replayRequests = flag.Int("replay-requests", 0,
		"fixed requests per client — the deterministic mode; overrides -replay-duration")
	replayMutateRate = flag.Float64("replay-mutate-rate", 0, "probability each replay request mutates (0..1)")
	replayAnchored   = flag.String("replay-anchored", "any", "tier filter: any, only (anchored), none (unanchored)")
)

func runReplay() error {
	f, err := workload.ReadFile(*replayFile)
	if err != nil {
		return err
	}
	spec := &engine.ReplaySpec{}
	for _, e := range f.Entries {
		spec.Entries = append(spec.Entries, engine.ReplayEntry{
			Class: e.Class, Expr: e.Expr, Semantics: e.Semantics, From: e.From,
		})
	}
	if spec.ClassWeights, err = parseMix(*replayMix); err != nil {
		return err
	}
	switch *replayAnchored {
	case "", "any":
		spec.Anchored = engine.AnchoredAny
	case "only":
		spec.Anchored = engine.AnchoredOnly
	case "none":
		spec.Anchored = engine.AnchoredNone
	default:
		return fmt.Errorf("-replay-anchored %q: want any, only or none", *replayAnchored)
	}

	section(fmt.Sprintf("Replay — %s: %d entries, seed %d, graph %s (%d nodes)",
		*replayFile, len(f.Entries), f.Header.Seed, f.Header.Graph.Fingerprint, f.Header.Graph.Nodes))
	if *replayAddr != "" {
		return replayHTTP(f, spec)
	}
	return replayInProcess(f, spec)
}

// parseMix parses "AQ1=3,AQ7=0.5" into class weights.
func parseMix(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	mix := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-replay-mix entry %q: want CLASS=WEIGHT", part)
		}
		if !workload.ValidClass(k) {
			return nil, fmt.Errorf("-replay-mix: unknown class %q", k)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-replay-mix %s: bad weight %q", k, v)
		}
		mix[k] = w
	}
	return mix, nil
}

// replayInProcess rebuilds the file's graph (the synthetic generator is
// deterministic in -seed, matching pqworkload's default) and replays
// through engine.RunLoad.
func replayInProcess(f *workload.File, spec *engine.ReplaySpec) error {
	g := datasets.Synthetic(f.Header.Graph.Nodes, *seed)
	if fp := workload.Fingerprint(g.Snapshot()); fp != f.Header.Graph.Fingerprint {
		fmt.Printf("warning: rebuilt graph fingerprint %s != file's %s — pass the forge's -seed; anchored entries may not resolve\n",
			fp, f.Header.Graph.Fingerprint)
	}
	e := engine.New(g, engine.Options{})
	report, err := engine.RunLoad(e, engine.LoadConfig{
		Clients:           *replayClients,
		Duration:          *replayDuration,
		RequestsPerClient: *replayRequests,
		Replay:            spec,
		MutateRate:        *replayMutateRate,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(report)
	printClassTable(report.ClassLatency)
	return nil
}

// replayHTTP drives a live server with the same closed loop RunLoad
// runs in-process: per-client seeded RNGs, the same weighted draw, a
// mutation with -replay-mutate-rate probability; per-class latency is
// measured at the client and, via the X-Workload-Class header, split in
// the server's own /metrics.
func replayHTTP(f *workload.File, spec *engine.ReplaySpec) error {
	entries, chooser, err := spec.Flatten()
	if err != nil {
		return err
	}
	queryURL, mutateURL := *replayAddr+"/query", *replayAddr+"/mutate"
	hists := make(map[string]*telemetry.Histogram)
	for _, re := range entries {
		if hists[re.Class] == nil {
			hists[re.Class] = &telemetry.Histogram{}
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		requests uint64
		mutI     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	nextMutation := func() string {
		mu.Lock()
		i := mutI
		mutI++
		mu.Unlock()
		return fmt.Sprintf(`{"edges":[{"from":"replay-%d","label":"replay","to":"replay-%d"}]}`, i, i+1)
	}
	post := func(url, body, class string) error {
		req, err := http.NewRequest("POST", url, strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if class != "" {
			req.Header.Set(server.WorkloadClassHeader, class)
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(buf.String()))
		}
		return nil
	}

	start := time.Now()
	deadline := start.Add(*replayDuration)
	for c := 0; c < *replayClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			var issued uint64
			defer func() {
				mu.Lock()
				requests += issued
				mu.Unlock()
			}()
			for n := 1; ; n++ {
				if *replayRequests > 0 {
					if n > *replayRequests {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				if failed() {
					return
				}
				if *replayMutateRate > 0 && rng.Float64() < *replayMutateRate {
					if err := post(mutateURL, nextMutation(), ""); err != nil {
						fail(err)
						return
					}
					issued++
					continue
				}
				re := &entries[chooser.Choose(rng.Float64())]
				body := requestBody(re)
				t0 := time.Now()
				if err := post(queryURL, body, re.Class); err != nil {
					fail(err)
					return
				}
				hists[re.Class].Observe(time.Since(t0))
				issued++
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	wall := time.Since(start)
	fmt.Printf("replayed %d requests against %s in %v (%.0f req/s, %d clients)\n",
		requests, *replayAddr, wall.Round(time.Millisecond), float64(requests)/wall.Seconds(), *replayClients)
	snaps := make(map[string]telemetry.HistogramSnapshot, len(hists))
	for class, h := range hists {
		snaps[class] = h.Snapshot()
	}
	printClassTable(snaps)
	return nil
}

func requestBody(re *engine.ReplayEntry) string {
	b := &strings.Builder{}
	fmt.Fprintf(b, `{"query":%q`, re.Expr)
	if re.Semantics != "" {
		fmt.Fprintf(b, `,"semantics":%q`, re.Semantics)
	}
	if re.From != "" {
		fmt.Fprintf(b, `,"from":%q`, re.From)
	}
	b.WriteString("}")
	return b.String()
}

// printClassTable renders per-class latency in AQ order, every class in
// the mix on its own line (zero counts included, so a smoke run can
// assert that every class was actually exercised).
func printClassTable(classes map[string]telemetry.HistogramSnapshot) {
	if len(classes) == 0 {
		fmt.Println("no per-class latency recorded")
		return
	}
	names := make([]string, 0, len(classes))
	for class := range classes {
		names = append(names, class)
	}
	sort.Slice(names, func(i, j int) bool {
		ni, _ := strconv.Atoi(strings.TrimPrefix(names[i], "AQ"))
		nj, _ := strconv.Atoi(strings.TrimPrefix(names[j], "AQ"))
		if ni != nj {
			return ni < nj
		}
		return names[i] < names[j]
	})
	fmt.Println("per-class latency:")
	for _, class := range names {
		s := classes[class]
		fmt.Printf("class=%s count=%d p50=%v p99=%v max=%v\n",
			class, s.Count(), s.Quantile(0.50), s.Quantile(0.99), time.Duration(s.Max))
	}
}
