package graph

import (
	"context"
	"errors"
	"math"
	"math/bits"

	"pathquery/internal/automata"
	"pathquery/internal/bitset"
	"pathquery/internal/plan"
)

// This file is the evaluator core: the product constructions between a
// graph and a compiled query plan (internal/plan) that power both query
// evaluation (Section 2: q(G) = {ν | L(q) ∩ paths_G(ν) ≠ ∅}) and the
// learner's consistency checks (lines 4-6 of Algorithm 1). All of them run
// in O(|E| · |Q|) — the polynomial emptiness-of-intersection the paper
// cites (Lange & Rossmanith).
//
// One traversal core serves every semantics. Forward expansion
// (relaxPlanForward here, witnessPath in accumulators.go) walks CSR
// out-segments through the plan's flat Delta with accept-reachability
// (Live) pruning; backward expansion (relaxPlanBackward) walks in-segments
// through the plan's packed reverse DFA (RevOff/RevPred) with
// start-reachability (Reach) pruning, one level per call, for the packed
// monadic fixpoint, each level of CountPlanCtx and the backward sides of
// the binary searches. For plans in the masked layout (|Q| ≤ 64) the
// monadic fixpoint is one state mask per node, grown backward by the
// masked propagation kernel (maskKernel) through the plan's PredMask. On
// top of them:
//
//   - SelectMonadicPlan: backward propagation from every accepting pair —
//     the masked kernel seeded by one sweep over all in-segments, or, in
//     the packed layout (|Q| > 64), level-synchronous backward relaxes
//     over the full product bitset.
//   - WitnessPathPlan (accumulators.go): early-exit forward search from
//     one node, skipping it whole through the plan's first-symbol filter;
//     its verdict is query.Query.Selects.
//   - CoversAnyMerger: early-exit forward search on the learner's live
//     merger — (node, class representative) pairs, transitions resolved
//     through the union-find — so a merge candidate is checked without
//     being built as a DFA or compiled into a plan.
//   - CoversPairPlan: bidirectional reachability — per level the cheaper
//     frontier (by CSR degree sums) is expanded, and the sides meet in a
//     shared product space.
//   - SelectBinaryFromPlan: direction-optimizing evaluation — forward
//     levels run until a backward sweep from the accepting set becomes
//     cheaper; once the backward co-accepting set is complete, the
//     remaining forward work is pruned to it. It is the one evaluator of
//     anchored binary semantics, for the library and the engine alike.
//   - WitnessBFS (witness.go): the canonical-order word search shared by
//     scp.Coverage.Smallest (the SCP and, unbounded, path-language
//     inclusion) and the binary learner's smallest pair-path.
//
// The product space is the dense index v·|Q|+q over (node, DFA state)
// pairs; visited sets are pooled bitsets over it (see csr.go). Every
// search runs against one immutable epoch Snapshot, so concurrent queries
// and mutations never interfere. Every entry point takes a compiled plan;
// a raw *automata.DFA compiles to one with plan.Compile or, keeping its
// state numbering, plan.FromDFA.

// ctxCheckInterval bounds how many worklist pops run between context
// cancellation checks in the searches that are not level-synchronous
// (level-synchronous searches check once per frontier level). Checking
// ctx.Err() is one atomic load, so the interval only has to keep the
// check out of the innermost edge loops.
const ctxCheckInterval = 4096

// SelectMonadicPlan returns the per-node selection vector of the compiled
// query p under monadic semantics: selected[ν] iff L(p) ∩ paths_G(ν) ≠ ∅.
//
// It marks product pairs (node, state) from which an accepting state is
// reachable, by backward propagation from every (node, final) pair, then
// reads off pairs (ν, start). The per-symbol reverse tables come
// precompiled from the plan.
func (s *Snapshot) SelectMonadicPlan(p *plan.Plan) []bool {
	selected, _ := s.SelectMonadicPlanCtx(context.Background(), p)
	return selected
}

// SelectMonadicPlanCtx is SelectMonadicPlan honoring ctx: cancellation is
// checked between propagation steps, and a canceled or deadline-exceeded
// evaluation returns ctx.Err() with a nil selection.
func (s *Snapshot) SelectMonadicPlanCtx(ctx context.Context, p *plan.Plan) ([]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nv, nq := s.nv, p.NumStates
	selected := make([]bool, nv)
	if nv == 0 || nq == 0 || p.Empty() {
		return selected, nil
	}
	if p.Layout == plan.LayoutMasked {
		// The fixpoint masks live in the pooled visited words, one per node.
		sc := s.getProduct(nv * 64)
		defer s.putProductDense(sc, nv*64)
		masks := sc.bits[:nv]
		if err := s.monadicMasks(ctx, p, sc, masks); err != nil {
			return nil, err
		}
		startBit := uint64(1) << uint(p.Start)
		for v, m := range masks {
			selected[v] = m&startBit != 0
		}
		return selected, nil
	}

	size := nv * nq
	sc := s.getProduct(size)
	defer s.putProductDense(sc, size)
	good := sc.bits
	frontier, next := sc.stack, sc.next
	for _, q := range p.Finals {
		if !p.Reach[q] {
			continue
		}
		for v := 0; v < nv; v++ {
			idx := v*nq + int(q)
			good.Set(idx)
			frontier = append(frontier, uint64(idx))
		}
	}
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			sc.stack, sc.next = frontier, next
			return nil, err
		}
		next, _ = s.relaxPlanBackward(p, frontier, next, good, nil, nil)
		frontier, next = next, frontier[:0]
	}
	sc.stack, sc.next = frontier, next

	start := int(p.Start)
	for v := 0; v < nv; v++ {
		selected[v] = good.Get(v*nq + start)
	}
	return selected, nil
}

// monadicMasks computes the masked-layout backward fixpoint into masks
// (one word per node): masks[v] is the set of states q with an accepting
// path from (v, q). Every node starts at FinalMask, and the first backward
// level — the identical FinalMask relaxed from every node — is one sweep
// over all in-segment runs with the plan's FinalPredMask; segments whose
// symbol has no transition into a final state are skipped without
// touching their edges. The kernel drains the sparse remainder.
func (s *Snapshot) monadicMasks(ctx context.Context, p *plan.Plan, sc *productScratch, masks []uint64) error {
	for v := range masks {
		masks[v] = p.FinalMask
	}
	k := s.kernel(sc, p, masks, 0, math.MaxInt)
	s.in.runs(func(rs rowSegs) { k.sweep(rs, p.FinalPredMask) })
	err := k.drain(ctx)
	k.release(sc)
	return err
}

// errBudget reports a kernel run that gave up at its edge budget.
var errBudget = errors.New("graph: propagation budget exceeded")

// maskKernel is the masked propagation kernel shared by monadic scratch
// evaluation and incremental regrowth (incremental.go). It grows
// per-node state masks to the monadic fixpoint, backward over the
// in-rows through the plan's PredMask: masks[v] gains the states with an
// accepting path from v. A node whose mask gains states has them
// accumulated in a pending mask and is queued once until popped, so each
// of its segments is scanned once per pop however many states arrived.
// Callers seed it — mark, sweep — then drain it.
type maskKernel struct {
	in    *adj
	pred  []uint64 // the plan's PredMask: pred[sym·nq+q], the states one step before q on sym
	nq    int
	nsym  int
	masks []uint64 // the fixpoint being grown
	// pending[v] holds the states v gained but has not propagated yet;
	// it is nonzero exactly for the nodes on stack, so zeroing it under
	// the stack leaves the borrowed words clean.
	pending []uint64
	stack   []uint64
	// newly collects, as drain pops them, the nodes whose mask gained its
	// first state of watch (regrowth's answer delta; scratch evaluation
	// watches nothing).
	watch uint64
	newly []NodeID
	// cost counts the edges drained; drain gives up beyond budget.
	cost, budget int
}

// kernel returns a kernel growing masks (one word per node) under p,
// with its pending masks and stack borrowed from sc; release hands them
// back. watch and budget are as in maskKernel: pass 0 and math.MaxInt
// for neither.
func (s *Snapshot) kernel(sc *productScratch, p *plan.Plan, masks []uint64, watch uint64, budget int) maskKernel {
	sc.pending = sc.pending.Grow(s.nv * 64)
	return maskKernel{
		in: &s.in, pred: p.PredMask, nq: p.NumStates, nsym: p.NumSyms,
		masks: masks, pending: sc.pending, stack: sc.stack,
		watch: watch, budget: budget,
	}
}

// release returns the kernel's stack to sc. The pending masks are
// already clean: drain empties the stack or zeroes it on an early exit.
func (k *maskKernel) release(sc *productScratch) { sc.stack = k.stack[:0] }

// step returns the predecessors of the states of m on sym.
func (k *maskKernel) step(m uint64, sym int) uint64 {
	row := k.pred[sym*k.nq : (sym+1)*k.nq]
	var out uint64
	for ; m != 0; m &= m - 1 {
		out |= row[bits.TrailingZeros64(m)]
	}
	return out
}

// mark adds the states m to node u, queuing u if it gains any.
func (k *maskKernel) mark(u NodeID, m uint64) {
	k.relax([]Edge{{To: u}}, m)
}

// relax adds the states m to the tail of every in-edge.
func (k *maskKernel) relax(edges []Edge, m uint64) {
	masks, pending, stack := k.masks, k.pending, k.stack
	for _, e := range edges {
		if add := m &^ masks[e.To]; add != 0 {
			masks[e.To] |= add
			if pending[e.To] == 0 {
				stack = append(stack, uint64(e.To))
			}
			pending[e.To] |= add
		}
	}
	k.stack = stack
}

// sweep relaxes every segment of the run rs with the per-symbol mask
// seed[sym].
func (k *maskKernel) sweep(rs rowSegs, seed []uint64) {
	for si, sym := range rs.syms {
		if int(sym) < len(seed) && seed[sym] != 0 {
			k.relax(rs.edges[rs.offs[si]:rs.offs[si+1]], seed[sym])
		}
	}
}

// drain propagates every pending mask to the fixpoint. It checks ctx
// before its first pop and every ctxCheckInterval pops after, and stops
// with errBudget once the edges it scanned exceed the budget; on either
// early exit it zeroes the pending masks left on the stack.
func (k *maskKernel) drain(ctx context.Context) error {
	for pops := 0; len(k.stack) > 0; pops++ {
		if pops%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				k.abandon()
				return err
			}
		}
		v := NodeID(k.stack[len(k.stack)-1])
		k.stack = k.stack[:len(k.stack)-1]
		m := k.pending[v]
		k.pending[v] = 0
		if m&k.watch != 0 && (k.masks[v]&^m)&k.watch == 0 {
			k.newly = append(k.newly, v) // v held no watched state before m
		}
		var rs rowSegs
		if k.in.ov == nil {
			rs = k.in.base.segs(v) // inlined: the compacted common case
		} else {
			rs = k.in.segs(v)
		}
		for si, sym := range rs.syms {
			if int(sym) >= k.nsym {
				continue
			}
			tm := k.step(m, int(sym))
			if tm == 0 {
				continue
			}
			edges := rs.edges[rs.offs[si]:rs.offs[si+1]]
			if k.cost += len(edges); k.cost > k.budget {
				k.abandon()
				return errBudget
			}
			k.relax(edges, tm)
		}
	}
	return nil
}

// abandon clears the pending masks of the nodes still queued.
func (k *maskKernel) abandon() {
	for _, v := range k.stack {
		k.pending[v] = 0
	}
	k.stack = k.stack[:0]
}

// CoversAnyMerger reports whether the merger's current quotient selects
// some node of X: L(m) ∩ paths_G(X) ≠ ∅. It is the learner's consistency
// check (lines 4-5 of Algorithm 1, with X = S−), run on each merge
// candidate in place: an early-exit forward search over the pairs
// (node, representative) of the pooled product space, indexed
// v·m.NumStates()+rep, that resolves the merger's transitions through
// Find. No DFA, plan or first-symbol filter is built for the candidate.
// Every class reaches an accepting one — the merger starts from a PTA of
// positive words, and merging keeps that true — so no Live pruning is
// needed. Find's path-halving writes go on the merger's undo trail.
func (s *Snapshot) CoversAnyMerger(m *automata.Merger, set []NodeID) bool {
	if len(set) == 0 {
		return false
	}
	start := m.Find(0)
	if m.Accepting(start) {
		return true // ε ∈ paths_G(ν) for every ν
	}
	nq := m.NumStates()
	sc := s.getProduct(s.nv * nq)
	defer s.putProductSparse(sc)
	stack := sc.stack
	for _, v := range set {
		idx := int(v)*nq + int(start)
		if sc.bits.TrySet(idx) {
			sc.touched = append(sc.touched, uint64(idx))
			stack = append(stack, uint64(idx))
		}
	}
	found := false
	// The overlay test is hoisted out of the pop loop: without an overlay
	// (the compacted common case) every row comes from the inlinable
	// csr.segs, as in maskKernel.drain.
	out, base := &s.out, &s.out.base
	compacted := out.ov == nil
search:
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := NodeID(idx / uint64(nq))
		row := m.Row(int32(idx % uint64(nq)))
		var rs rowSegs
		if compacted {
			rs = base.segs(v)
		} else {
			rs = out.segs(v)
		}
		for si, sym := range rs.syms {
			if int(sym) >= len(row) || row[sym] == automata.None {
				continue
			}
			t := m.Find(row[sym])
			if m.Accepting(t) {
				found = true // a segment holds at least one edge
				break search
			}
			tb := int(t)
			for _, e := range rs.edges[rs.offs[si]:rs.offs[si+1]] {
				idx := int(e.To)*nq + tb
				if sc.bits.TrySet(idx) {
					sc.touched = append(sc.touched, uint64(idx))
					stack = append(stack, uint64(idx))
				}
			}
		}
	}
	sc.stack = stack
	return found
}

// hasNode reports whether v is a node of this epoch: an anchor outside
// it selects nothing and is covered by nothing.
func (s *Snapshot) hasNode(v NodeID) bool { return v >= 0 && int(v) < s.nv }

// hasFirstSymEdge reports whether v has an out-edge whose symbol can start
// an accepted word — the plan's first-symbol filter applied to the node's
// CSR segment list (no edges are touched).
func (s *Snapshot) hasFirstSymEdge(p *plan.Plan, v NodeID) bool {
	for _, sym := range s.out.segs(v).syms {
		if int(sym) < p.NumSyms && p.FirstSym[sym] {
			return true
		}
	}
	return false
}

// CoversPairPlan reports whether some path from u to v spells a word of
// L(p) — the binary semantics of Appendix B: paths2_G(u,v) ∩ L(p) ≠ ∅.
// The accepting condition requires landing exactly on v in a final DFA
// state; ε is accepted only when u = v and the start is final. A pair
// with an end outside the snapshot is not covered.
//
// The search is bidirectional: a forward frontier grows from (u, Start)
// and a backward frontier from every (v, final) pair; per level the side
// whose frontier has the smaller CSR degree sum is expanded, and the pair
// is covered iff the frontiers meet. Either side exhausting first settles
// the answer — on skewed graphs (huge out-fanout from u, few paths into
// v) this is the classical direction-optimizing win over forward-only.
func (s *Snapshot) CoversPairPlan(p *plan.Plan, u, v NodeID) bool {
	if p.Empty() || !s.hasNode(u) || !s.hasNode(v) {
		return false
	}
	if u == v && p.AcceptsEpsilon() {
		return true
	}
	nq := p.NumStates
	sc := s.getProduct2(s.nv * nq)
	defer s.putProduct2Sparse(sc)

	ffront, fnext := sc.stack[:0], sc.next[:0]
	bfront, bnext := sc.stack2[:0], sc.next2[:0]
	// Runs before putProduct2Sparse (LIFO): the grown frontier buffers go
	// back into the scratch so the pool keeps their capacity.
	defer func() {
		sc.stack, sc.next, sc.stack2, sc.next2 = ffront, fnext, bfront, bnext
	}()

	fidx := int(u)*nq + int(p.Start)
	sc.bits.Set(fidx)
	sc.touched = append(sc.touched, uint64(fidx))
	ffront = append(ffront, uint64(fidx))
	fcost := s.OutDegree(u)

	for _, f := range p.Finals {
		if !p.Reach[f] {
			continue
		}
		bidx := int(v)*nq + int(f)
		if sc.bits.Get(bidx) {
			return true
		}
		if sc.bits2.TrySet(bidx) {
			sc.touched2 = append(sc.touched2, uint64(bidx))
			bfront = append(bfront, uint64(bidx))
		}
	}
	bcost := s.InDegree(v) * len(bfront)

	for len(ffront) > 0 && len(bfront) > 0 {
		if fcost <= bcost {
			var found bool
			fnext, fcost, found = s.relaxPlanForward(p, nq, sc, ffront, fnext, nil, false)
			if found {
				return true
			}
			ffront, fnext = fnext, ffront[:0]
		} else {
			var found bool
			bnext, found = s.relaxPlanBackward(p, bfront, bnext, sc.bits2, &sc.touched2, sc.bits)
			if found {
				return true
			}
			bcost = s.inDegreeSum(bnext, nq)
			bfront, bnext = bnext, bfront[:0]
		}
	}
	return false
}

// relaxPlanForward expands one level-synchronous forward frontier through
// the plan's flat Delta with Live pruning. Newly marked pairs accumulate
// into next along with the degree sum of their nodes (the cost of
// expanding the next level). When mk is non-nil, nodes discovered in a
// final state are collected into it (SelectBinaryFromPlan). When restrict is
// true, only pairs in the completed backward set (or accepting pairs) are
// entered — the pruned tail of the direction-optimizing evaluation. The
// found result reports a forward/backward frontier meeting (CoversPairPlan;
// only when mk is nil).
func (s *Snapshot) relaxPlanForward(p *plan.Plan, nq int, sc *productScratch, frontier, next []uint64, mk *bitset.Marker, restrict bool) ([]uint64, int, bool) {
	co := &s.out
	cost := 0
	for _, idx := range frontier {
		v := NodeID(idx / uint64(nq))
		q := int32(idx % uint64(nq))
		base := int(q) * p.NumSyms
		rs := co.segs(v)
		for si := range rs.syms {
			sym := int(rs.syms[si])
			if sym >= p.NumSyms {
				continue
			}
			t := p.Delta[base+sym]
			if t == plan.None || !p.Live[t] {
				continue
			}
			tb := int(t)
			final := p.Final[t]
			for _, e := range rs.edges[rs.offs[si]:rs.offs[si+1]] {
				nidx := int(e.To)*nq + tb
				if restrict && !final && !sc.bits2.Get(nidx) {
					continue
				}
				if sc.bits.TrySet(nidx) {
					sc.touched = append(sc.touched, uint64(nidx))
					if mk != nil {
						if final {
							mk.TrySet(int(e.To))
						}
					} else if sc.bits2.Get(nidx) {
						return next, 0, true
					}
					next = append(next, uint64(nidx))
					cost += s.OutDegree(e.To)
				}
			}
		}
	}
	return next, cost, false
}

// relaxPlanBackward expands one level-synchronous backward frontier
// through the plan's packed reverse DFA with Reach pruning: for each pair
// (v, q), every in-edge (u, sym, v) combines with every reverse transition
// q --sym--> p into the predecessor pair (u, p). Pairs newly set in mark
// are appended to next and, when touched is non-nil, to *touched. When
// meet is non-nil, a new pair already in it settles the search
// (CoversPairPlan's frontiers meeting): found is true and next is
// incomplete. Both run outside the per-edge loop — touched once per
// call, meet once per segment — so the monadic and count callers, which
// pass neither, pay nothing for them there. The Reach pruning loses no
// (ν, Start) pair: Start is in Reach, and every predecessor of a state
// outside Reach is outside it.
func (s *Snapshot) relaxPlanBackward(p *plan.Plan, frontier, next []uint64, mark bitset.Bits, touched *[]uint64, meet bitset.Bits) (_ []uint64, found bool) {
	ci := &s.in
	nq := p.NumStates
	fresh := len(next)
search:
	for _, idx := range frontier {
		v := NodeID(idx / uint64(nq))
		q := int(idx % uint64(nq))
		rs := ci.segs(v)
		for si := range rs.syms {
			sym := int(rs.syms[si])
			if sym >= p.NumSyms {
				continue
			}
			k := sym*nq + q
			preds := p.RevPred[p.RevOff[k]:p.RevOff[k+1]]
			if len(preds) == 0 {
				continue
			}
			tails := rs.edges[rs.offs[si]:rs.offs[si+1]]
			for _, pr := range preds {
				if !p.Reach[pr] {
					continue
				}
				base, n := int(pr), len(next)
				for _, e := range tails {
					if nidx := int(e.To)*nq + base; mark.TrySet(nidx) {
						next = append(next, uint64(nidx))
					}
				}
				if meet == nil {
					continue
				}
				for _, idx := range next[n:] {
					if meet.Get(int(idx)) {
						found = true
						break search
					}
				}
			}
		}
	}
	if touched != nil {
		*touched = append(*touched, next[fresh:]...)
	}
	return next, found
}

// inDegreeSum returns the in-degree sum of a backward frontier's nodes:
// the cost of expanding it one more level.
func (s *Snapshot) inDegreeSum(frontier []uint64, nq int) int {
	cost := 0
	for _, idx := range frontier {
		cost += s.InDegree(NodeID(idx / uint64(nq)))
	}
	return cost
}

// SelectBinaryFromPlan returns all v such that (u, v) is selected by p
// under binary semantics, in increasing id order; nil when u is not a
// node of the snapshot.
//
// Evaluation is direction-optimizing. Forward levels expand from
// (u, Start), collecting nodes discovered in a final state. Whenever the
// estimated cost of the next forward level exceeds the remaining cost of
// the backward side — seeded from every accepting pair via the plan's
// last-symbol filter and per-symbol edge counts, i.e. CSR degree prefix
// sums — a backward level runs instead. Once the backward side completes,
// its visited set is exactly the co-accepting region, and the remaining
// forward work is pruned to it: every pair entered from then on lies on a
// path to some answer.
func (s *Snapshot) SelectBinaryFromPlan(p *plan.Plan, u NodeID) []NodeID {
	nodes, _ := s.selectBinaryFrom(context.Background(), p, u, true)
	return nodes
}

// SelectBinaryFromPlanCtx is SelectBinaryFromPlan honoring ctx:
// cancellation is checked once per expansion level, and a canceled or
// deadline-exceeded evaluation returns ctx.Err() with a nil node list.
func (s *Snapshot) SelectBinaryFromPlanCtx(ctx context.Context, p *plan.Plan, u NodeID) ([]NodeID, error) {
	return s.selectBinaryFrom(ctx, p, u, true)
}

// selectBinaryFrom evaluates binary semantics from u; directional=false
// disables the backward side, leaving the forward-only evaluation the
// tests and benchmarks compare the direction optimization against.
func (s *Snapshot) selectBinaryFrom(ctx context.Context, p *plan.Plan, u NodeID, directional bool) ([]NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Empty() || !s.hasNode(u) {
		return nil, nil
	}
	nq := p.NumStates
	sc := s.getProduct2(s.nv * nq)
	defer s.putProduct2Sparse(sc)
	hits := s.getStep()
	defer s.putStep(hits)
	mk := bitset.NewMarker(hits.nodes)

	fidx := int(u)*nq + int(p.Start)
	sc.bits.Set(fidx)
	sc.touched = append(sc.touched, uint64(fidx))
	ffront := append(sc.stack[:0], uint64(fidx))
	fnext := sc.next[:0]
	if p.AcceptsEpsilon() {
		mk.TrySet(int(u))
	}
	fcost := s.OutDegree(u)

	// Backward side, engaged lazily: phase 0 = not started (bcost is the
	// estimated cost of the seeding sweep), 1 = running, 2 = complete.
	bfront, bnext := sc.stack2[:0], sc.next2[:0]
	// Runs before putProduct2Sparse (LIFO): the grown frontier buffers go
	// back into the scratch so the pool keeps their capacity.
	defer func() {
		sc.stack, sc.next, sc.stack2, sc.next2 = ffront, fnext, bfront, bnext
	}()
	bPhase := 0
	bcost := s.nv
	for sym, ok := range p.LastSym {
		if ok && sym < len(s.inSymCount) {
			bcost += int(s.inSymCount[sym])
		}
	}

	for len(ffront) > 0 {
		if err := ctx.Err(); err != nil {
			mk.Drain(func(int) {}) // leave the step scratch clean
			return nil, err
		}
		if directional && bPhase != 2 && bcost < fcost {
			if bPhase == 0 {
				bfront, bcost = s.seedBackwardAll(p, nq, sc, bfront)
				bPhase = 1
			} else {
				bnext, _ = s.relaxPlanBackward(p, bfront, bnext, sc.bits2, &sc.touched2, nil)
				bcost = s.inDegreeSum(bnext, nq)
				bfront, bnext = bnext, bfront[:0]
			}
			if len(bfront) == 0 {
				bPhase = 2
			}
			continue
		}
		fnext, fcost, _ = s.relaxPlanForward(p, nq, sc, ffront, fnext, &mk, bPhase == 2)
		ffront, fnext = fnext, ffront[:0]
	}

	if mk.Count() == 0 {
		return nil, nil
	}
	out := make([]NodeID, 0, mk.Count())
	mk.Drain(func(i int) { out = append(out, NodeID(i)) })
	return out, nil
}

// seedBackwardAll runs the backward seeding sweep of SelectBinaryFromPlan:
// the level-1 relax of every accepting pair (x, f), f final, folded into
// one pass over the in-adjacency's segment runs, relaxing the segments
// labeled by a last symbol. The per-symbol
// union of the finals' reverse predecessors (the packed analogue of the
// plan's FinalPredMask) is call-invariant, so it is built once up front
// instead of re-deriving the buckets per segment. Accepting pairs
// themselves are never materialized in the backward visited set — the
// forward pruning treats final states as co-accepting by definition.
func (s *Snapshot) seedBackwardAll(p *plan.Plan, nq int, sc *productScratch, front []uint64) ([]uint64, int) {
	// finalPreds[sym]: deduplicated Reach-filtered predecessors of any
	// reachable final state on sym; nil for non-last symbols.
	finalPreds := make([][]int32, p.NumSyms)
	seen := make([]bool, nq)
	for sym := 0; sym < p.NumSyms; sym++ {
		if !p.LastSym[sym] {
			continue
		}
		var preds []int32
		for _, f := range p.Finals {
			if !p.Reach[f] {
				continue
			}
			k := sym*nq + int(f)
			for _, pr := range p.RevPred[p.RevOff[k]:p.RevOff[k+1]] {
				if p.Reach[pr] && !seen[pr] {
					seen[pr] = true
					preds = append(preds, pr)
				}
			}
		}
		for _, pr := range preds {
			seen[pr] = false
		}
		finalPreds[sym] = preds
	}

	cost := 0
	s.in.runs(func(rs rowSegs) {
		for si, sym := range rs.syms {
			if int(sym) >= p.NumSyms {
				continue
			}
			preds := finalPreds[sym]
			if len(preds) == 0 {
				continue
			}
			tails := rs.edges[rs.offs[si]:rs.offs[si+1]]
			for _, pr := range preds {
				base := int(pr)
				for _, e := range tails {
					nidx := int(e.To)*nq + base
					if sc.bits2.TrySet(nidx) {
						sc.touched2 = append(sc.touched2, uint64(nidx))
						front = append(front, uint64(nidx))
						cost += s.InDegree(e.To)
					}
				}
			}
		}
	})
	return front, cost
}

// AsNFA materializes the graph as an NFA with the given start nodes and
// every state accepting — the explicit form of paths_G(starts). Useful for
// tests cross-checking product algorithms against the automata package.
func (s *Snapshot) AsNFA(starts []NodeID) *automata.NFA {
	n := automata.NewNFA(s.nv, s.nsym)
	for v := 0; v < s.nv; v++ {
		n.Final[v] = true
		for _, e := range s.out.row(NodeID(v)) {
			n.AddTransition(NodeID(v), e.Sym, e.To)
		}
	}
	n.Starts = append([]int32(nil), starts...)
	return n
}
