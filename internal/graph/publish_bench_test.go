package graph

// Publish-path benchmarks for incremental CSR publishing. The pair
// Incremental/Full is the tentpole's acceptance evidence: a ≤64-edge
// delta must publish ≥10× faster than the from-scratch rebuild of the
// same graph, which also demonstrates that untouched rows are never
// re-sorted (a re-sort would make the incremental path scale with |E|,
// not |delta|). Compact measures the amortized fold of the overlay back
// into a fresh base.

import (
	"fmt"
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
)

// benchPublishGraph builds a random published graph with nv nodes and
// ne edges over 8 labels.
func benchPublishGraph(nv, ne int) *Graph {
	rng := rand.New(rand.NewSource(7))
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	g := New(alphabet.NewSorted(labels...))
	for i := 0; i < nv; i++ {
		g.AddNode(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < ne; i++ {
		g.AddEdge(NodeID(rng.Intn(nv)), alphabet.Symbol(rng.Intn(len(labels))), NodeID(rng.Intn(nv)))
	}
	g.Snapshot()
	return g
}

// BenchmarkPublishIncremental times one publication of a 64-edge delta
// on a 100k-edge graph through the overlay path (a compaction every
// maxDeltaChain-th iteration is amortized in, as in production).
func BenchmarkPublishIncremental(b *testing.B) {
	g := benchPublishGraph(20000, 100000)
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 64; k++ {
			g.AddEdge(NodeID(rng.Intn(20000)), alphabet.Symbol(rng.Intn(8)), NodeID(rng.Intn(20000)))
		}
		b.StartTimer()
		_, st := g.SnapshotStats()
		if !st.Incremental {
			b.Fatal("publish fell off the incremental path")
		}
	}
}

// BenchmarkPublishFull times the from-scratch rebuild of both CSR
// directions on the same graph — what every publication cost before
// incremental publishing, and the denominator of the ≥10× criterion.
func BenchmarkPublishFull(b *testing.B) {
	g := benchPublishGraph(20000, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fullCSR(g.out)
		in := fullCSR(g.in)
		if out.base.rowStart[len(out.base.rowStart)-1] != in.base.rowStart[len(in.base.rowStart)-1] {
			b.Fatal("direction edge counts diverged")
		}
	}
}

// BenchmarkPublishCompact times the overlay fold: each iteration first
// accumulates an overlay past the |E|/compactOverlayDivisor trigger
// (untimed), then times the publication that compacts it.
func BenchmarkPublishCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh graph every iteration: repeatedly growing one graph by
		// |E|/divisor per round would compound past the delta-overflow
		// valve (2^20 edges) and fall off the incremental path entirely.
		g := benchPublishGraph(20000, 100000)
		// One publish well below the trigger to own an overlay, then a
		// delta that pushes past it.
		g.AddEdge(NodeID(rng.Intn(20000)), 0, NodeID(rng.Intn(20000)))
		if _, st := g.SnapshotStats(); st.Compacted {
			b.Fatal("warm-up publish compacted early")
		}
		// The trigger compares the overlay against |E| *including* the
		// delta itself, so solve ov*divisor > base+ov for ov.
		over := g.numEdges/(compactOverlayDivisor-1) + 64
		for k := 0; k < over; k++ {
			g.AddEdge(NodeID(rng.Intn(20000)), alphabet.Symbol(rng.Intn(8)), NodeID(rng.Intn(20000)))
		}
		b.StartTimer()
		_, st := g.SnapshotStats()
		if !st.Compacted {
			b.Fatal("publish did not compact")
		}
	}
}
