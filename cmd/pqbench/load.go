package main

// Closed-loop load runs: -serve draws syn1..syn3, -replay a recorded
// pqworkload file, and both hand the mix to the one driver
// (internal/loadgen), in process or against -addr.

import (
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/loadgen"
	"pathquery/internal/telemetry"
	"pathquery/internal/workload"
)

var (
	serve    = flag.Bool("serve", false, "closed-loop serving benchmark over syn1..syn3")
	serveSyn = flag.Int("serve-syn", 10000, "synthetic graph size for -serve")

	replayFile     = flag.String("replay", "", "replay this pqworkload file and report per-class latency")
	replayMix      = flag.String("replay-mix", "", "class-weight mix, e.g. AQ1=3,AQ7=1,AQ28=0 (unlisted classes weigh 1, 0 excludes)")
	replayAnchored = flag.String("replay-anchored", "any", "tier filter: any, only (anchored), none (unanchored)")

	clients    = flag.Int("clients", 8, "closed-loop clients for -serve and -replay")
	duration   = flag.Duration("duration", 5*time.Second, "load duration for -serve and -replay")
	requests   = flag.Int("requests", 0, "fixed requests per client — the deterministic mode; overrides -duration")
	mutateRate = flag.Float64("mutate-rate", 0, "probability each request mutates and publishes an epoch (0..1)")
	addr       = flag.String("addr", "",
		"drive this graph's base URL (e.g. http://localhost:8080/v1/graphs/default) instead of an in-process engine")
)

func runServe() error {
	g := datasets.Synthetic(*serveSyn, *seed)
	spec := &engine.ReplaySpec{}
	section(fmt.Sprintf("Serving benchmark — syn1..syn3 on %d nodes", *serveSyn))
	for _, nq := range datasets.SynQueriesOn(g.Snapshot()) {
		spec.Entries = append(spec.Entries, engine.ReplayEntry{Class: nq.Name, Expr: nq.Expr})
		fmt.Printf("%s: %s\n", nq.Name, nq.Expr)
	}
	return runLoad(spec, func() *graph.Graph { return g })
}

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
	// In process, rebuild the file's graph: the synthetic generator is
	// deterministic in -seed, matching pqworkload's default.
	return runLoad(spec, func() *graph.Graph {
		g := datasets.Synthetic(f.Header.Graph.Nodes, *seed)
		if fp := workload.Fingerprint(g.Snapshot()); fp != f.Header.Graph.Fingerprint {
			fmt.Printf("warning: rebuilt graph fingerprint %s != file's %s — pass the forge's -seed; anchored entries may not resolve\n",
				fp, f.Header.Graph.Fingerprint)
		}
		return g
	})
}

// runLoad drives spec against -addr, or against an in-process engine
// over the graph g builds, and prints the report.
func runLoad(spec *engine.ReplaySpec, g func() *graph.Graph) error {
	var target loadgen.Target
	if *addr != "" {
		fmt.Printf("target: %s\n", *addr)
		target = loadgen.HTTP(*addr)
	} else {
		target = loadgen.InProcess(engine.New(g(), engine.Options{}))
	}
	report, err := loadgen.Run(target, loadgen.Config{
		Clients:           *clients,
		Duration:          *duration,
		RequestsPerClient: *requests,
		Mix:               spec,
		MutateRate:        *mutateRate,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(report)
	printClassTable(report.ClassLatency)
	return nil
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

// printClassTable renders per-class latency in AQ order, every class in
// the mix on its own line (zero counts included, so a smoke run can
// assert that every class was actually exercised).
func printClassTable(classes map[string]telemetry.HistogramSnapshot) {
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
