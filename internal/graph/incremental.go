package graph

import (
	"context"
	"math"
	"slices"

	"pathquery/internal/plan"
)

// Incremental re-evaluation across epoch deltas (delta.go). The query
// language has no negation, so an edge insert can only grow a monadic or
// anchored-binary selection: the product fixpoint of the old epoch is a
// valid lower bound of the new one, and the new fixpoint is reached by
// seeding the masked propagation kernel (product.go) from the delta edges
// alone instead of recomputing from scratch.
//
// Two entry points per semantics, each a seed plus one kernel call:
//
//   - Select...State: the from-scratch evaluation that additionally
//     returns the per-node state masks (one uint64 per node, |Q| ≤ 64
//     masked layout only) — the fixpoint the engine caches alongside the
//     answer.
//   - Regrow...: given the cached masks of an older epoch, extend them to
//     this snapshot's node count and fold in a DeltaSpan under a work
//     budget, returning the new masks and the nodes that became selected.
//     The caller merges those into the cached answer.
//
// Monadic semantics propagates backward over the in-rows through the
// plan's PredMask, anchored binary forward over the out-rows through its
// SuccMask, so an incremental result is bit-for-bit the fixpoint a
// from-scratch pass computes on the new snapshot.

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

// SelectBinaryFromMaskedState evaluates the anchored binary semantics
// like SelectBinaryFromPlanCtx and additionally returns the forward
// product fixpoint: masks[v] is the set of DFA states reachable at v from
// (u, Start) through live transitions. Unlike the bidirectional
// direction-optimizing evaluator this always runs forward — the full
// forward closure is what survives future epochs — so the uncached cost
// can be higher on graphs where the backward side is cheaper; retained
// and regrown hits amortize it. The plan must be in the masked layout.
func (s *Snapshot) SelectBinaryFromMaskedState(ctx context.Context, p *plan.Plan, u NodeID) ([]NodeID, []uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	masks := make([]uint64, s.nv)
	if p.Empty() || u < 0 || int(u) >= s.nv {
		return nil, masks, nil
	}
	sc := s.getProduct(0)
	k := s.kernel(sc, &s.out, p.SuccMask, p, masks, 0, math.MaxInt)
	k.mark(u, 1<<uint(p.Start))
	err := k.drain(ctx)
	k.release(sc)
	s.putProductClean(sc)
	if err != nil {
		return nil, nil, err
	}
	return nodesWith(masks, p.FinalMask), masks, nil
}

// nodesWith returns the nodes whose mask intersects m, ascending.
func nodesWith(masks []uint64, m uint64) []NodeID {
	var nodes []NodeID
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
	return s.regrow(&s.in, p.PredMask, p, cached, p.FinalMask, 1<<uint(p.Start), span, budget)
}

// RegrowBinaryFromMasked is RegrowMonadicMasked for the anchored binary
// semantics: cached must be the SelectBinaryFromMaskedState masks of the
// span's From epoch. New nodes start unreached (zero mask); the forward
// kernel is seeded from the span's edges whose tails carry states, and
// newly lists the nodes whose mask newly intersects FinalMask.
func (s *Snapshot) RegrowBinaryFromMasked(p *plan.Plan, cached []uint64, span *DeltaSpan, budget int) (masks []uint64, newly []NodeID, ok bool) {
	return s.regrow(&s.out, p.SuccMask, p, cached, 0, p.FinalMask, span, budget)
}

// regrow extends cached with start for the nodes created since, seeds the
// kernel over a and tab from every delta edge, and drains it under
// budget. A delta edge steps the mask of the node whose row holds it in a
// (its head for in-rows, its tail for out-rows) to the other end.
// selected is the state set that puts a node in the answer.
func (s *Snapshot) regrow(a *adj, tab []uint64, p *plan.Plan, cached []uint64, start, selected uint64, span *DeltaSpan, budget int) ([]uint64, []NodeID, bool) {
	sc := s.getProduct(0)
	defer s.putProductClean(sc)
	masks := make([]uint64, s.nv)
	k := s.kernel(sc, a, tab, p, masks, selected, budget)
	defer k.release(sc)
	for v := copy(masks, cached); v < len(masks); v++ {
		masks[v] = start
		if start&selected != 0 {
			k.newly = append(k.newly, NodeID(v))
		}
	}
	for _, batch := range span.Batches {
		if k.cost += len(batch); k.cost > budget {
			k.abandon()
			return nil, nil, false
		}
		for _, de := range batch {
			owner, other := de.From, de.To
			if a == &s.in {
				owner, other = other, owner
			}
			if sym := int(de.Sym); sym < p.NumSyms {
				k.mark(other, k.step(masks[owner], sym))
			}
		}
	}
	if k.drain(context.Background()) != nil {
		return nil, nil, false
	}
	slices.Sort(k.newly)
	return masks, k.newly, true
}
