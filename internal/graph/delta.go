package graph

import (
	"math/bits"

	"pathquery/internal/alphabet"
	"pathquery/internal/plan"
)

// This file implements epoch deltas: the structured record of what changed
// between two published snapshots. The build side accumulates the edges
// added since the last publication; publishing freezes them into an
// immutable Delta attached to the new Snapshot and chains it to the
// previous snapshot's delta. Every snapshot also carries a per-symbol
// write epoch (SymEpoch), so whether a cached answer's alphabet was
// written since its epoch is a max over the plan's symbol bits, with no
// chain walk. The serving engine folds the chain between a cached answer's
// epoch and the current one (DeltaSince) only to regrow the answer
// incrementally from the new edges' endpoints.
//
// The chain is deliberately bounded: every maxDeltaChain publications the
// link to the previous delta is cut (a "fence"), so the memory reachable
// from the current snapshot is at most the last maxDeltaChain deltas.
// Spans that would cross a fence report !ok and the caller recomputes
// from scratch; the fence limits only regrowth, not SymEpoch.

const (
	// maxDeltaChain bounds how many epochs back DeltaSince can fold.
	maxDeltaChain = 64
	// maxDeltaEdges bounds the build-side accumulator. A single publish
	// that adds more edges than this (bulk loading through a live graph)
	// overflows the delta: the publication carries no delta, counts as
	// writing every label, and cached results are recomputed — correct,
	// and cheaper than regrowing from a seed set that large anyway.
	maxDeltaEdges = 1 << 20
)

// DeltaEdge is one edge added during an epoch's build window.
type DeltaEdge struct {
	From NodeID
	Sym  alphabet.Symbol
	To   NodeID
}

// Delta records what one publication added relative to the previous epoch:
// the new edges, the node-count growth, and the hashed symbol mask of the
// added edges (plan.SymBit over each edge's label). Deltas are immutable
// and chained newest-to-oldest so a span of epochs can be folded without
// copying. A publication reached through a *Snapshot with a nil Delta
// either was the first epoch, overflowed maxDeltaEdges, or sits on a
// chain fence.
type Delta struct {
	// Epoch is the publication this delta produced; it covers the build
	// window (Epoch-1, Epoch].
	Epoch uint64
	// PrevNumNodes and NumNodes are the node counts before and after:
	// ids [PrevNumNodes, NumNodes) are the nodes this epoch introduced.
	PrevNumNodes int
	NumNodes     int
	// Edges are the edges added this epoch, in insertion order.
	Edges []DeltaEdge
	// SymMask is the OR of plan.SymBit over the labels of Edges.
	SymMask uint64

	prev  *Delta // previous epoch's delta; nil at the chain start
	depth int    // links behind this delta, for the fence cut
}

// DeltaSpan is the fold of a consecutive run of deltas: everything added
// between epoch From (exclusive) and To (inclusive).
type DeltaSpan struct {
	From, To uint64
	// SymMask is the union of the per-epoch symbol masks.
	SymMask uint64
	// NewNodes is how many nodes were created in the span; they occupy
	// ids [nv-NewNodes, nv) of the To-epoch snapshot.
	NewNodes int
	// Batches are the per-epoch edge slices (borrowed from the deltas,
	// not copied); NumEdges is their total length.
	Batches  [][]DeltaEdge
	NumEdges int
}

// Delta returns the delta this snapshot's publication produced, or nil
// (first epoch, accumulator overflow, or a chain fence).
func (s *Snapshot) Delta() *Delta { return s.delta }

// SymEpoch returns the last epoch, up to this snapshot's, that added an
// edge whose label's plan.SymBit lies in mask; a publication that carried
// no delta (the first one, or an accumulator overflow) counts as adding
// every label. A cached answer over a plan with alphabet mask m, valid at
// epoch e, is unaffected by every edge added since when SymEpoch(m) <= e.
func (s *Snapshot) SymEpoch(mask uint64) uint64 {
	var last uint64
	for ; mask != 0; mask &= mask - 1 {
		last = max(last, s.symEpoch[bits.TrailingZeros64(mask)])
	}
	return last
}

// DeltaSince folds the delta chain from this snapshot back to (but not
// including) the given epoch. ok is false when the chain does not reach
// that far — the caller must treat the cached state as unmaintainable.
// A span from the snapshot's own epoch is valid and empty.
func (s *Snapshot) DeltaSince(epoch uint64) (DeltaSpan, bool) {
	sp := DeltaSpan{From: epoch, To: s.epoch}
	if epoch > s.epoch {
		return DeltaSpan{}, false
	}
	if epoch == s.epoch {
		return sp, true
	}
	for d := s.delta; d != nil; d = d.prev {
		if d.Epoch <= epoch {
			break // chain epochs are consecutive; covered already
		}
		sp.SymMask |= d.SymMask
		if len(d.Edges) > 0 {
			sp.Batches = append(sp.Batches, d.Edges)
			sp.NumEdges += len(d.Edges)
		}
		if d.Epoch == epoch+1 {
			sp.NewNodes = s.nv - d.PrevNumNodes
			return sp, true
		}
	}
	return DeltaSpan{}, false
}

// recordDeltaEdge accumulates an edge into the build-side delta. Only
// meaningful once a first epoch exists — before that there is no previous
// epoch to maintain anything against, and bulk construction stays free.
func (g *Graph) recordDeltaEdge(from NodeID, sym alphabet.Symbol, to NodeID) {
	if g.cur.Load() == nil || g.deltaOverflow {
		return
	}
	if len(g.deltaEdges) >= maxDeltaEdges {
		g.overflowDelta()
		return
	}
	g.deltaEdges = append(g.deltaEdges, DeltaEdge{from, sym, to})
	g.deltaSyms |= plan.SymBit(int(sym))
}

// overflowDelta abandons the build-side delta: the next publication is a
// full rebuild and carries none.
func (g *Graph) overflowDelta() {
	g.deltaOverflow = true
	g.deltaEdges = nil
	g.deltaSyms = 0
}

// sealDelta freezes the accumulated build-side delta into the snapshot
// being published and stamps its per-symbol write epochs. Called under
// publishMu with prev = the epoch being superseded (nil for the first
// publication).
func (g *Graph) sealDelta(s *Snapshot, prev *Snapshot) {
	if prev != nil && !g.deltaOverflow {
		d := &Delta{
			Epoch:        s.epoch,
			PrevNumNodes: prev.nv,
			NumNodes:     s.nv,
			Edges:        g.deltaEdges,
			SymMask:      g.deltaSyms,
		}
		if prev.delta != nil && prev.delta.depth < maxDeltaChain {
			d.prev = prev.delta
			d.depth = prev.delta.depth + 1
		}
		s.delta = d
		s.symEpoch = prev.symEpoch
		for m := g.deltaSyms; m != 0; m &= m - 1 {
			s.symEpoch[bits.TrailingZeros64(m)] = s.epoch
		}
	} else {
		for b := range s.symEpoch {
			s.symEpoch[b] = s.epoch
		}
	}
	g.deltaEdges = nil
	g.deltaSyms = 0
	g.deltaOverflow = false
}
