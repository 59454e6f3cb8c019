package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"pathquery/internal/paperfix"
)

func TestComputeStatsG0(t *testing.T) {
	g, _ := paperfix.G0()
	s := g.Snapshot().ComputeStats()
	if s.Nodes != 7 || s.Edges != 15 {
		t.Fatalf("stats = %d nodes / %d edges", s.Nodes, s.Edges)
	}
	// ν4 is the only sink in G0.
	if s.Sinks != 1 {
		t.Fatalf("sinks = %d, want 1", s.Sinks)
	}
	if s.MaxOutDegree < 2 {
		t.Fatalf("max out-degree = %d", s.MaxOutDegree)
	}
	// Label counts sum to the edge count and come sorted descending.
	total := 0
	for i, lc := range s.LabelCounts {
		total += lc.Count
		if i > 0 && lc.Count > s.LabelCounts[i-1].Count {
			t.Fatal("label counts not sorted")
		}
	}
	if total != s.Edges {
		t.Fatalf("label counts sum to %d, want %d", total, s.Edges)
	}
	// Histogram sums to the node count.
	nodes := 0
	for _, c := range s.DegreeHistogram {
		nodes += c
	}
	if nodes != s.Nodes {
		t.Fatalf("histogram sums to %d, want %d", nodes, s.Nodes)
	}
}

func TestStatsPrint(t *testing.T) {
	g, _ := paperfix.Figure1()
	var buf bytes.Buffer
	g.Snapshot().ComputeStats().Print(&buf)
	out := buf.String()
	for _, want := range []string{"nodes: 10", "cinema", "histogram"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}
