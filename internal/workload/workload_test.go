package workload_test

import (
	"bytes"
	"strings"
	"testing"

	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/workload"
)

func benchGraph() *graph.Graph {
	return datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 1500, Edges: 4500, Labels: 12, ZipfS: 1.1, Seed: 101,
	})
}

func TestGenerateShapes(t *testing.T) {
	g := benchGraph()
	for _, shape := range workload.AllShapes {
		e, err := workload.Generate(g.Snapshot(), workload.Params{
			Shape: shape, Length: 2, ClassWidth: 2, RankOffset: 0,
		})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if e.Expr == "" || e.Query == nil {
			t.Fatalf("%s: empty entry", shape)
		}
		if e.Size < 1 {
			t.Fatalf("%s: size %d", shape, e.Size)
		}
		if e.Selectivity < 0 || e.Selectivity > 1 {
			t.Fatalf("%s: selectivity %v", shape, e.Selectivity)
		}
	}
}

func TestGenerateStarHeight(t *testing.T) {
	g := benchGraph()
	snap := g.Snapshot()
	chain, err := workload.Generate(snap, workload.Params{Shape: workload.Chain, Length: 3})
	if err != nil {
		t.Fatal(err)
	}
	if chain.StarHeight != 0 {
		t.Fatalf("chain star height = %d", chain.StarHeight)
	}
	tail, err := workload.Generate(snap, workload.Params{Shape: workload.KleeneTail, Length: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tail.StarHeight != 1 {
		t.Fatalf("kleene-tail star height = %d", tail.StarHeight)
	}
}

func TestGenerateRankOffsetMonotoneSelectivity(t *testing.T) {
	// Higher rank offsets draw rarer labels: selectivity should not grow
	// (weakly, comparing extremes).
	g := benchGraph()
	snap := g.Snapshot()
	lo, err := workload.Generate(snap, workload.Params{Shape: workload.Chain, Length: 1, RankOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := workload.Generate(snap, workload.Params{Shape: workload.Chain, Length: 1, RankOffset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Selectivity > lo.Selectivity {
		t.Fatalf("offset 10 (%v) more selective than offset 0 (%v)?", hi.Selectivity, lo.Selectivity)
	}
}

func TestGenerateErrors(t *testing.T) {
	g := benchGraph()
	snap := g.Snapshot()
	if _, err := workload.Generate(snap, workload.Params{Shape: workload.Chain, Length: 0}); err == nil {
		t.Fatal("length 0 accepted")
	}
	if _, err := workload.Generate(snap, workload.Params{Shape: "nope", Length: 1}); err == nil {
		t.Fatal("unknown shape accepted")
	}
	if _, err := workload.Generate(snap, workload.Params{
		Shape: workload.Chain, Length: 50, ClassWidth: 4,
	}); err == nil {
		t.Fatal("rank overflow accepted")
	}
}

func TestSuiteCoversBands(t *testing.T) {
	g := benchGraph()
	suite := workload.Suite(g.Snapshot(), []workload.Shape{workload.Chain, workload.ABStarC}, workload.DefaultBands)
	if len(suite) < 4 {
		t.Fatalf("suite has only %d entries", len(suite))
	}
	for _, e := range suite {
		if e.Selectivity <= 0 {
			t.Fatalf("suite entry %s selects nothing", e.Expr)
		}
	}
}

func TestPrintAndCSV(t *testing.T) {
	g := benchGraph()
	e, err := workload.Generate(g.Snapshot(), workload.Params{Shape: workload.ABStarC, Length: 1, ClassWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	workload.Print(&buf, []workload.Entry{e})
	if !strings.Contains(buf.String(), "abstar-c") {
		t.Fatalf("print output:\n%s", buf.String())
	}
	buf.Reset()
	if err := workload.WriteCSV(&buf, []workload.Entry{e}); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("CSV lines = %d", lines)
	}
}
