// Package experiments regenerates the paper's evaluation (Section 5):
// Table 1 (query selectivities), Figures 11 and 12 (static-protocol F1 and
// learning time as functions of the labeled fraction), Table 2 (the
// interactive protocol summary), and the two ablations the text discusses
// (generalization contribution, dynamic-k schedule). The same runners back
// cmd/pqbench and the root-level benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"pathquery/internal/core"
	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/metrics"
)

// DefaultFractions is the labeled-fraction sweep of the static experiments
// (Figures 11 and 12 plot F1 and time against this axis).
var DefaultFractions = []float64{0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.10, 0.15, 0.22, 0.30}

// StaticPoint is one x-position of a Figure 11/12 series, averaged over
// trials.
type StaticPoint struct {
	Fraction  float64
	F1        float64
	Precision float64
	Recall    float64
	LearnTime time.Duration
	// Abstained counts trials where the learner returned no query (its
	// prediction then selects nothing).
	Abstained int
	// K is the mean final SCP bound of the dynamic schedule.
	K float64
}

// StaticSeries is a full Figure 11/12 line for one goal query.
type StaticSeries struct {
	Query  datasets.NamedQuery
	Points []StaticPoint
}

// StaticConfig tunes the static runner.
type StaticConfig struct {
	Fractions []float64
	Trials    int
	Seed      int64
	Learner   core.Options
}

func (c StaticConfig) withDefaults() StaticConfig {
	if len(c.Fractions) == 0 {
		c.Fractions = DefaultFractions
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// RunStatic reproduces one Figure 11/12 series: draw a random sample of
// each size, learn, and score the learned query against the goal as a
// binary node classifier.
// Every learn/score pass evaluates compiled plans against the one pinned
// epoch snapshot.
func RunStatic(snap *graph.Snapshot, goal datasets.NamedQuery, cfg StaticConfig) StaticSeries {
	cfg = cfg.withDefaults()
	series := StaticSeries{Query: goal}
	goalSel := goal.Query.Evaluate(snap).Vector()
	for fi, fraction := range cfg.Fractions {
		var pt StaticPoint
		pt.Fraction = fraction
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000*fi+trial)))
			pos, neg := datasets.RandomSample(snap, goal.Query, fraction, rng)
			sample := core.Sample{Pos: pos, Neg: neg}
			start := time.Now()
			res, err := core.LearnDetailed(snap, sample, cfg.Learner)
			pt.LearnTime += time.Since(start)
			var predicted []bool
			if err != nil {
				pt.Abstained++
				predicted = make([]bool, snap.NumNodes())
			} else {
				predicted = res.Query.Evaluate(snap).Vector()
				pt.K += float64(res.K)
			}
			score := metrics.Score(goalSel, predicted)
			pt.F1 += score.F1()
			pt.Precision += score.Precision()
			pt.Recall += score.Recall()
		}
		n := float64(cfg.Trials)
		pt.F1 /= n
		pt.Precision /= n
		pt.Recall /= n
		pt.LearnTime /= time.Duration(cfg.Trials)
		if learned := cfg.Trials - pt.Abstained; learned > 0 {
			pt.K /= float64(learned)
		}
		series.Points = append(series.Points, pt)
	}
	return series
}

// RunStaticAll runs a series per goal query, in parallel across queries.
func RunStaticAll(snap *graph.Snapshot, goals []datasets.NamedQuery, cfg StaticConfig) []StaticSeries {
	out := make([]StaticSeries, len(goals))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, goal := range goals {
		wg.Add(1)
		go func(i int, goal datasets.NamedQuery) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = RunStatic(snap, goal, cfg)
		}(i, goal)
	}
	wg.Wait()
	return out
}

// LabelsNeededStatic sweeps the fraction axis upward and returns the
// smallest fraction at which every trial reaches F1 = 1 — the paper's
// "Labels needed for F1 score = 1 without interactions" column of Table 2.
// Returns 1.0 if even labeling everything is needed (which always
// suffices: the full labeling is a characteristic-or-better sample only if
// the graph admits one, so the fallback reports the whole graph).
func LabelsNeededStatic(snap *graph.Snapshot, goal datasets.NamedQuery, cfg StaticConfig) float64 {
	cfg = cfg.withDefaults()
	goalSel := goal.Query.Evaluate(snap).Vector()
	fractions := append([]float64{}, cfg.Fractions...)
	fractions = append(fractions, 0.5, 0.66, 0.87, 1.0)
	sort.Float64s(fractions)
	for _, fraction := range fractions {
		allPerfect := true
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(7777*trial) + int64(fraction*1e6)))
			pos, neg := datasets.RandomSample(snap, goal.Query, fraction, rng)
			res, err := core.LearnDetailed(snap, core.Sample{Pos: pos, Neg: neg}, cfg.Learner)
			if err != nil {
				allPerfect = false
				break
			}
			if !metrics.Score(goalSel, res.Query.Evaluate(snap).Vector()).Exact() {
				allPerfect = false
				break
			}
		}
		if allPerfect {
			return fraction
		}
	}
	return 1.0
}

// InteractiveRow is one row of Table 2.
type InteractiveRow struct {
	Dataset      string
	QueryName    string
	GraphNodes   int
	StaticNeeded float64 // fraction of nodes, without interactions
	Strategy     string
	Labels       int
	LabelsFrac   float64
	MeanTime     time.Duration
	Halted       interactive.HaltReason
	// F1 is the final learned query's score against the goal: 1 when the
	// session halted satisfied, possibly lower when it hit a budget cap.
	F1 float64
}

// InteractiveConfig tunes the interactive runner.
type InteractiveConfig struct {
	Seed int64
	// MaxInteractions caps a session (0: |V|).
	MaxInteractions int
	// StaticBaseline controls whether the expensive "without interactions"
	// column is computed (it sweeps static samples to F1=1).
	StaticBaseline bool
	Static         StaticConfig
}

// RunInteractive reproduces the Table 2 rows for one goal on one graph,
// with the paper's two strategies.
func RunInteractive(dataset string, snap *graph.Snapshot, goal datasets.NamedQuery, cfg InteractiveConfig) []InteractiveRow {
	return RunInteractiveStrategies(dataset, snap, goal,
		[]interactive.Strategy{interactive.KR{}, interactive.KS{}}, cfg)
}

// RunInteractiveStrategies is RunInteractive with caller-chosen strategies
// (used by the sampled-session experiments of the §6 future work).
func RunInteractiveStrategies(dataset string, snap *graph.Snapshot, goal datasets.NamedQuery, strategies []interactive.Strategy, cfg InteractiveConfig) []InteractiveRow {
	staticNeeded := -1.0
	if cfg.StaticBaseline {
		staticNeeded = LabelsNeededStatic(snap, goal, cfg.Static)
	}
	var rows []InteractiveRow
	for _, strat := range strategies {
		sess := interactive.NewSession(snap, interactive.Options{
			Strategy:        strat,
			Seed:            cfg.Seed,
			MaxInteractions: cfg.MaxInteractions,
		})
		oracle := interactive.NewQueryOracle(snap, goal.Query)
		res, err := sess.Run(oracle, interactive.ExactMatch(snap, goal.Query))
		if err != nil {
			// Interactive sessions over oracle labels cannot produce invalid
			// samples; an error here is a bug worth surfacing loudly.
			panic(fmt.Sprintf("experiments: interactive run failed: %v", err))
		}
		f1 := 0.0
		if res.Query != nil {
			f1 = metrics.F1(oracle.Selection(), res.Query.Evaluate(snap).Vector())
		}
		rows = append(rows, InteractiveRow{
			Dataset:      dataset,
			QueryName:    goal.Name,
			GraphNodes:   snap.NumNodes(),
			StaticNeeded: staticNeeded,
			Strategy:     strat.Name(),
			Labels:       res.Labels(),
			LabelsFrac:   res.LabelFraction(snap),
			MeanTime:     res.MeanTimeBetweenInteractions(),
			Halted:       res.Halted,
			F1:           f1,
		})
	}
	return rows
}

// Table1Row pairs a query with measured and paper-reported selectivity.
type Table1Row struct {
	Name             string
	Expr             string
	Selectivity      float64
	PaperSelectivity float64
	SelectedNodes    int
}

// Table1 measures the bio-query selectivities on the AliBaba stand-in.
// One epoch snapshot is pinned for the whole table, so every query's
// compiled plan evaluates against the same immutable CSR.
func Table1(snap *graph.Snapshot, queries []datasets.NamedQuery) []Table1Row {
	rows := make([]Table1Row, len(queries))
	for i, nq := range queries {
		sel := nq.Query.Evaluate(snap)
		rows[i] = Table1Row{
			Name:             nq.Name,
			Expr:             nq.Expr,
			Selectivity:      sel.Selectivity(),
			PaperSelectivity: nq.PaperSelectivity,
			SelectedNodes:    sel.Count(),
		}
	}
	return rows
}

// PrintTable1 renders Table 1 rows.
func PrintTable1(w io.Writer, rows []Table1Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tselected\tselectivity\tpaper\texpr")
	for _, r := range rows {
		expr := r.Expr
		if len(expr) > 60 {
			expr = expr[:57] + "..."
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4f%%\t%.4f%%\t%s\n",
			r.Name, r.SelectedNodes, 100*r.Selectivity, 100*r.PaperSelectivity, expr)
	}
	tw.Flush()
}

// PrintStaticSeries renders Figure 11/12 series as aligned text: one block
// per query with F1 and learning time per fraction.
func PrintStaticSeries(w io.Writer, series []StaticSeries) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\t%labeled\tF1\tprecision\trecall\tlearn_time\tmean_k\tabstained")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(tw, "%s\t%.2f%%\t%.3f\t%.3f\t%.3f\t%v\t%.1f\t%d\n",
				s.Query.Name, 100*p.Fraction, p.F1, p.Precision, p.Recall,
				p.LearnTime.Round(time.Microsecond), p.K, p.Abstained)
		}
	}
	tw.Flush()
}

// PrintTable2 renders interactive rows.
func PrintTable2(w io.Writer, rows []InteractiveRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tquery\tnodes\tstatic_labels_F1=1\tstrategy\tlabels\t%labels\ttime/interaction\tF1\thalt")
	for _, r := range rows {
		staticCol := "-"
		if r.StaticNeeded >= 0 {
			staticCol = fmt.Sprintf("%.0f%%", 100*r.StaticNeeded)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%d\t%.2f%%\t%v\t%.3f\t%v\n",
			r.Dataset, r.QueryName, r.GraphNodes, staticCol, r.Strategy,
			r.Labels, 100*r.LabelsFrac, r.MeanTime.Round(time.Microsecond), r.F1, r.Halted)
	}
	tw.Flush()
}

// WriteStaticCSV emits Figure 11/12 data as CSV for external plotting.
func WriteStaticCSV(w io.Writer, series []StaticSeries) error {
	if _, err := fmt.Fprintln(w, "query,fraction,f1,precision,recall,learn_seconds,mean_k,abstained"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f,%.4f,%.6f,%.2f,%d\n",
				s.Query.Name, p.Fraction, p.F1, p.Precision, p.Recall,
				p.LearnTime.Seconds(), p.K, p.Abstained); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTable2CSV emits Table 2 data as CSV.
func WriteTable2CSV(w io.Writer, rows []InteractiveRow) error {
	if _, err := fmt.Fprintln(w, "dataset,query,nodes,static_needed,strategy,labels,labels_fraction,mean_seconds,f1,halt"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.4f,%s,%d,%.6f,%.6f,%.4f,%s\n",
			r.Dataset, r.QueryName, r.GraphNodes, r.StaticNeeded, r.Strategy,
			r.Labels, r.LabelsFrac, r.MeanTime.Seconds(), r.F1, r.Halted); err != nil {
			return err
		}
	}
	return nil
}

// AblationGeneralization compares static F1 with and without the merge
// phase — §5.2 reports the generalization's contribution is ≈1% of F1.
type AblationGeneralization struct {
	Query       string
	Fraction    float64
	F1Full      float64
	F1NoMerge   float64
	F1Advantage float64
}

// RunAblationGeneralization measures the merge phase's contribution at one
// fraction per query.
func RunAblationGeneralization(snap *graph.Snapshot, goals []datasets.NamedQuery, fraction float64, cfg StaticConfig) []AblationGeneralization {
	cfg = cfg.withDefaults()
	cfg.Fractions = []float64{fraction}
	var out []AblationGeneralization
	for _, goal := range goals {
		full := RunStatic(snap, goal, cfg)
		noMerge := cfg
		noMerge.Learner.DisableGeneralization = true
		ablated := RunStatic(snap, goal, noMerge)
		out = append(out, AblationGeneralization{
			Query:       goal.Name,
			Fraction:    fraction,
			F1Full:      full.Points[0].F1,
			F1NoMerge:   ablated.Points[0].F1,
			F1Advantage: full.Points[0].F1 - ablated.Points[0].F1,
		})
	}
	return out
}

// PrintAblation renders the generalization ablation.
func PrintAblation(w io.Writer, rows []AblationGeneralization) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\t%labeled\tF1_full\tF1_no_merge\tadvantage")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.3f\t%.3f\t%+.3f\n",
			r.Query, 100*r.Fraction, r.F1Full, r.F1NoMerge, r.F1Advantage)
	}
	tw.Flush()
}

// KDistribution tallies the dynamic schedule's final k over static runs —
// §5.1 reports k = 2 suffices in the majority of cases, reaching 4 in
// isolated ones.
func KDistribution(series []StaticSeries) map[int]int {
	out := make(map[int]int)
	for _, s := range series {
		for _, p := range s.Points {
			if p.K > 0 {
				out[int(p.K+0.5)]++
			}
		}
	}
	return out
}
