package graph

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"pathquery/internal/alphabet"
)

// Stats summarizes a graph's structure: the properties the paper's
// synthetic generator controls (scale-free degree distribution, Zipfian
// label distribution) and benchmark consumers inspect.
type Stats struct {
	Nodes, Edges int
	// MaxOutDegree / MaxInDegree witness the heavy tail.
	MaxOutDegree, MaxInDegree int
	// Sinks counts nodes with no outgoing edges (paths(ν) = {ε}).
	Sinks int
	// Sources counts nodes with no incoming edges.
	Sources int
	// LabelCounts maps each label to its edge count, descending.
	LabelCounts []LabelCount
	// DegreeHistogram[d] is the number of nodes with out-degree d,
	// capped at the last bucket.
	DegreeHistogram []int
}

// LabelCount pairs a label with its frequency.
type LabelCount struct {
	Label string
	Count int
}

// ComputeStats scans the snapshot once.
func (s *Snapshot) ComputeStats() Stats {
	st := Stats{Nodes: s.nv, Edges: s.ne}
	labelCounts := make(map[alphabet.Symbol]int)
	const histBuckets = 16
	st.DegreeHistogram = make([]int, histBuckets)
	for v := 0; v < s.nv; v++ {
		out := s.OutDegree(NodeID(v))
		in := s.InDegree(NodeID(v))
		if out > st.MaxOutDegree {
			st.MaxOutDegree = out
		}
		if in > st.MaxInDegree {
			st.MaxInDegree = in
		}
		if out == 0 {
			st.Sinks++
		}
		if in == 0 {
			st.Sources++
		}
		bucket := out
		if bucket >= histBuckets {
			bucket = histBuckets - 1
		}
		st.DegreeHistogram[bucket]++
		for _, e := range s.out.row(NodeID(v)) {
			labelCounts[e.Sym]++
		}
	}
	for sym, c := range labelCounts {
		st.LabelCounts = append(st.LabelCounts, LabelCount{s.g.alpha.Name(sym), c})
	}
	sort.Slice(st.LabelCounts, func(i, j int) bool {
		if st.LabelCounts[i].Count != st.LabelCounts[j].Count {
			return st.LabelCounts[i].Count > st.LabelCounts[j].Count
		}
		return st.LabelCounts[i].Label < st.LabelCounts[j].Label
	})
	return st
}

// Print renders the stats.
func (s Stats) Print(w io.Writer) {
	fmt.Fprintf(w, "nodes: %d  edges: %d  sinks: %d  sources: %d\n",
		s.Nodes, s.Edges, s.Sinks, s.Sources)
	fmt.Fprintf(w, "max out-degree: %d  max in-degree: %d\n",
		s.MaxOutDegree, s.MaxInDegree)
	fmt.Fprintln(w, "out-degree histogram (last bucket = ≥15):")
	for d, c := range s.DegreeHistogram {
		if c > 0 {
			fmt.Fprintf(w, "  %2d: %d\n", d, c)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "label\tedges\tshare")
	for _, lc := range s.LabelCounts {
		fmt.Fprintf(tw, "%s\t%d\t%.2f%%\n", lc.Label, lc.Count,
			100*float64(lc.Count)/float64(s.Edges))
	}
	tw.Flush()
}
