package graph

import (
	"context"
	"slices"

	"pathquery/internal/plan"
)

// Incremental re-evaluation of the monadic semantics across epoch deltas
// (delta.go). The query language has no negation, so an edge insert can
// only grow a monadic selection: the product fixpoint of the old epoch is
// a valid lower bound of the new one, and the new fixpoint is reached by
// seeding the masked propagation kernel (product.go) from the delta edges
// alone instead of recomputing from scratch.
//
// Two entry points, each a seed plus one kernel call, for plans in the
// masked layout (|Q| ≤ 64):
//
//   - SelectMonadicMaskedState: the from-scratch evaluation that
//     additionally returns the per-node state masks (one uint64 per
//     node) — the fixpoint the engine caches alongside the answer.
//   - RegrowMonadicMasked: given the cached masks of an older epoch,
//     extend them to this snapshot's node count and fold in a DeltaSpan
//     under a work budget, returning the new masks and the nodes that
//     became selected. The caller merges those into the cached answer.
//
// Both propagate backward over the in-rows through the plan's PredMask,
// so an incremental result is bit-for-bit the fixpoint a from-scratch
// pass computes on the new snapshot. Anchored binary semantics keeps no
// fixpoint: its direction-optimizing search (SelectBinaryFromPlanCtx) is
// cheaper to rerun than a forward fixpoint is to keep and regrow.

// SelectMonadicMaskedState evaluates the monadic semantics like
// SelectMonadicPlan and additionally returns the full product fixpoint:
// masks[v] is the set of DFA states q such that an accepting path starts
// at (v, q), always including FinalMask. The plan must be in the masked
// layout. The masks slice is freshly allocated and owned by the caller.
func (s *Snapshot) SelectMonadicMaskedState(ctx context.Context, p *plan.Plan) ([]NodeID, []uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	masks := make([]uint64, s.nv)
	sc := s.getProduct(0)
	err := s.monadicMasks(ctx, p, sc, masks)
	s.putProductClean(sc)
	if err != nil {
		return nil, nil, err
	}
	return nodesWith(masks, 1<<uint(p.Start)), masks, nil
}

// nodesWith returns the nodes whose mask intersects m, ascending, in one
// allocation: it counts them first.
func nodesWith(masks []uint64, m uint64) []NodeID {
	n := 0
	for _, mv := range masks {
		if mv&m != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, n)
	for v, mv := range masks {
		if mv&m != 0 {
			nodes = append(nodes, NodeID(v))
		}
	}
	return nodes
}

// RegrowMonadicMasked folds a delta span into a cached monadic fixpoint:
// cached must be the SelectMonadicMaskedState masks of the span's From
// epoch. It returns them extended to this snapshot's node count — a new
// node starts at FinalMask, the trivial backward fixpoint — and grown by
// the kernel seeded from the span's edges alone; propagation runs over
// this snapshot's full in-rows, so chains through pre-existing edges are
// followed. newly lists, ascending, the nodes that entered the selection,
// new nodes selected by ε included. ok is false when the edges relaxed
// would exceed budget; the results are then nil. cached is not modified.
func (s *Snapshot) RegrowMonadicMasked(p *plan.Plan, cached []uint64, span *DeltaSpan, budget int) (masks []uint64, newly []NodeID, ok bool) {
	sc := s.getProduct(0)
	defer s.putProductClean(sc)
	masks = make([]uint64, s.nv)
	startBit := uint64(1) << uint(p.Start)
	k := s.kernel(sc, p, masks, startBit, budget)
	defer k.release(sc)
	for v := copy(masks, cached); v < len(masks); v++ {
		masks[v] = p.FinalMask
		if p.FinalMask&startBit != 0 {
			k.newly = append(k.newly, NodeID(v))
		}
	}
	for _, batch := range span.Batches {
		if k.cost += len(batch); k.cost > budget {
			k.abandon()
			return nil, nil, false
		}
		// A delta edge lies in its head's in-row: its tail gains the
		// predecessors of the head's states on its symbol.
		for _, de := range batch {
			if sym := int(de.Sym); sym < p.NumSyms {
				k.mark(de.From, k.step(masks[de.To], sym))
			}
		}
	}
	if k.drain(context.Background()) != nil {
		return nil, nil, false
	}
	slices.Sort(k.newly)
	return masks, k.newly, true
}
