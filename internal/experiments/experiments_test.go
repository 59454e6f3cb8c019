package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"pathquery/internal/datasets"
	"pathquery/internal/experiments"
	"pathquery/internal/query"
)

func TestRunStaticShape(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 500, Edges: 1500, Labels: 8, ZipfS: 1, Seed: 17,
	})
	goal := datasets.SynQueriesOn(g.Snapshot())[2]
	cfg := experiments.StaticConfig{
		Fractions: []float64{0.02, 0.10, 0.30},
		Trials:    2,
		Seed:      1,
	}
	series := experiments.RunStatic(g.Snapshot(), goal, cfg)
	if len(series.Points) != 3 {
		t.Fatalf("%d points", len(series.Points))
	}
	for _, p := range series.Points {
		if p.F1 < 0 || p.F1 > 1 {
			t.Fatalf("F1 out of range: %v", p.F1)
		}
	}
	// The paper's headline static shape: more labels, better F1 (weakly,
	// comparing the extremes to tolerate trial noise).
	if series.Points[2].F1+1e-9 < series.Points[0].F1 {
		t.Fatalf("F1 decreased with more labels: %v -> %v",
			series.Points[0].F1, series.Points[2].F1)
	}
}

func TestRunStaticDeterministic(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 300, Edges: 900, Labels: 6, ZipfS: 1, Seed: 23,
	})
	goal := datasets.SynQueriesOn(g.Snapshot())[1]
	cfg := experiments.StaticConfig{Fractions: []float64{0.05}, Trials: 2, Seed: 9}
	a := experiments.RunStatic(g.Snapshot(), goal, cfg)
	b := experiments.RunStatic(g.Snapshot(), goal, cfg)
	if a.Points[0].F1 != b.Points[0].F1 {
		t.Fatalf("non-deterministic: %v vs %v", a.Points[0].F1, b.Points[0].F1)
	}
}

func TestRunStaticAllParallelMatchesSequential(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 300, Edges: 900, Labels: 6, ZipfS: 1, Seed: 29,
	})
	goals := datasets.SynQueriesOn(g.Snapshot())
	cfg := experiments.StaticConfig{Fractions: []float64{0.05}, Trials: 1, Seed: 4}
	parallel := experiments.RunStaticAll(g.Snapshot(), goals, cfg)
	for i, goal := range goals {
		seq := experiments.RunStatic(g.Snapshot(), goal, cfg)
		if parallel[i].Points[0].F1 != seq.Points[0].F1 {
			t.Fatalf("query %s: parallel %v != sequential %v",
				goal.Name, parallel[i].Points[0].F1, seq.Points[0].F1)
		}
	}
}

func TestLabelsNeededStatic(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 200, Edges: 600, Labels: 6, ZipfS: 1, Seed: 31,
	})
	goal := datasets.SynQueriesOn(g.Snapshot())[2]
	cfg := experiments.StaticConfig{
		Fractions: []float64{0.05, 0.20},
		Trials:    1,
		Seed:      2,
	}
	needed := experiments.LabelsNeededStatic(g.Snapshot(), goal, cfg)
	if needed <= 0 || needed > 1 {
		t.Fatalf("needed = %v", needed)
	}
}

func TestRunInteractiveRows(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 300, Edges: 900, Labels: 6, ZipfS: 1, Seed: 37,
	})
	goal := datasets.SynQueriesOn(g.Snapshot())[2]
	rows := experiments.RunInteractive("test", g.Snapshot(), goal, experiments.InteractiveConfig{
		Seed:            1,
		MaxInteractions: 150,
	})
	if len(rows) != 2 {
		t.Fatalf("%d rows, want kR and kS", len(rows))
	}
	for _, r := range rows {
		if r.Strategy != "kR" && r.Strategy != "kS" {
			t.Fatalf("strategy %q", r.Strategy)
		}
		if r.Labels <= 0 {
			t.Fatalf("%s: no labels", r.Strategy)
		}
		if r.F1 < 0 || r.F1 > 1 {
			t.Fatalf("%s: F1 = %v", r.Strategy, r.F1)
		}
		if r.StaticNeeded != -1 {
			t.Fatalf("static baseline not requested but = %v", r.StaticNeeded)
		}
	}
}

func TestTable1RowsAndPrinting(t *testing.T) {
	g := datasets.AliBaba()
	snap := g.Snapshot()
	qs := datasets.BioQueries(snap)
	rows := experiments.Table1(snap, qs)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	var buf bytes.Buffer
	experiments.PrintTable1(&buf, rows)
	out := buf.String()
	for _, want := range []string{"bio1", "bio6", "selectivity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintAndCSVWriters(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 200, Edges: 600, Labels: 6, ZipfS: 1, Seed: 41,
	})
	goal := datasets.SynQueriesOn(g.Snapshot())[2]
	cfg := experiments.StaticConfig{Fractions: []float64{0.05}, Trials: 1, Seed: 3}
	series := []experiments.StaticSeries{experiments.RunStatic(g.Snapshot(), goal, cfg)}

	var buf bytes.Buffer
	experiments.PrintStaticSeries(&buf, series)
	if !strings.Contains(buf.String(), "F1") {
		t.Fatal("static print missing header")
	}
	buf.Reset()
	if err := experiments.WriteStaticCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 row", lines)
	}

	rows := experiments.RunInteractive("t", g.Snapshot(), goal, experiments.InteractiveConfig{
		Seed: 1, MaxInteractions: 60,
	})
	buf.Reset()
	experiments.PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "kS") {
		t.Fatal("table2 print missing strategy")
	}
	buf.Reset()
	if err := experiments.WriteTable2CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kR") {
		t.Fatal("table2 CSV missing strategy")
	}
}

func TestAblationGeneralization(t *testing.T) {
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 300, Edges: 900, Labels: 6, ZipfS: 1, Seed: 43,
	})
	goals := datasets.SynQueriesOn(g.Snapshot())[2:]
	rows := experiments.RunAblationGeneralization(g.Snapshot(), goals, 0.10,
		experiments.StaticConfig{Trials: 1, Seed: 5})
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	var buf bytes.Buffer
	experiments.PrintAblation(&buf, rows)
	if !strings.Contains(buf.String(), "advantage") {
		t.Fatal("ablation print missing header")
	}
}

func TestKDistribution(t *testing.T) {
	series := []experiments.StaticSeries{{
		Points: []experiments.StaticPoint{{K: 2}, {K: 2}, {K: 3}, {K: 0}},
	}}
	dist := experiments.KDistribution(series)
	if dist[2] != 2 || dist[3] != 1 || dist[0] != 0 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestStaticHandlesAbstain(t *testing.T) {
	// A goal selecting nothing yields samples with no positives: the
	// learner abstains and the harness must score the empty prediction.
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 100, Edges: 300, Labels: 6, ZipfS: 1, Seed: 47,
	})
	// A label that does not occur twice in a row: selectivity 0.
	q, err := query.Parse(g.Alphabet(), "zz·zz")
	if err != nil {
		t.Fatal(err)
	}
	nq := datasets.NamedQuery{Name: "never", Expr: "zz·zz", Query: q}
	series := experiments.RunStatic(g.Snapshot(), nq, experiments.StaticConfig{
		Fractions: []float64{0.1}, Trials: 1, Seed: 1,
	})
	p := series.Points[0]
	if p.Abstained != 1 {
		t.Fatalf("abstained = %d", p.Abstained)
	}
	// Empty goal vs empty prediction: perfect score by convention.
	if p.F1 != 1 {
		t.Fatalf("F1 = %v", p.F1)
	}
}
