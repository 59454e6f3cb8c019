package graph

import (
	"context"

	"pathquery/internal/alphabet"
	"pathquery/internal/plan"
	"pathquery/internal/words"
)

// This file holds the result-shape accumulators behind the unified
// evaluation API (query.EvaluateReq): witness-path reconstruction and
// accepting-length counting. Both ride the same forward/backward product
// expansion as the selection evaluators in product.go — a witness is a
// forward search that additionally records the parent chain, and a length
// count is the backward propagation run level-exactly instead of to a
// fixpoint — so a new result shape is one more accumulator over the
// traversal core, not a new traversal.

// PathWitness is one reconstructed accepting path: Nodes[0] is the start
// node, Word[i] labels the edge Nodes[i] → Nodes[i+1], and the path spells
// a word of the query language (len(Nodes) == len(Word)+1; a witness for
// an ε-accepting query is the single start node and the empty word).
type PathWitness struct {
	Nodes []NodeID
	Word  words.Word
}

// parentStep records how a product pair was first discovered: the pair it
// was expanded from and the symbol of the connecting edge.
type parentStep struct {
	prev uint64
	sym  alphabet.Symbol
}

// WitnessPathPlan returns the canonical-minimal accepting path starting at
// ν — the actual labeled path whose word witnesses that p selects ν under
// monadic semantics. The search is a forward product BFS from (ν, Start)
// expanding CSR segments in ascending symbol order with a recorded parent
// chain, so the first accepting discovery is the length-lexicographic
// minimal witness (the WitnessBFS discipline of witness.go, plus parents).
// ok is false when ν is not selected.
func (s *Snapshot) WitnessPathPlan(ctx context.Context, p *plan.Plan, nu NodeID) (PathWitness, bool, error) {
	return s.witnessPath(ctx, p, nu, -1)
}

// WitnessPairPathPlan returns the shortest (canonical-minimal) path from u
// to v spelling a word of L(p) — the witness of (u, v) under the binary
// semantics of Appendix B. ok is false when the pair is not selected.
func (s *Snapshot) WitnessPairPathPlan(ctx context.Context, p *plan.Plan, u, v NodeID) (PathWitness, bool, error) {
	if v < 0 {
		return PathWitness{}, false, ctx.Err() // witnessPath reads a negative target as monadic
	}
	return s.witnessPath(ctx, p, u, v)
}

// witnessPath is the shared parent-chain BFS: target < 0 accepts any
// (node, final) pair (monadic witness), target ≥ 0 only (target, final)
// (pair witness). A start or target outside the snapshot has no witness.
func (s *Snapshot) witnessPath(ctx context.Context, p *plan.Plan, start NodeID, target NodeID) (PathWitness, bool, error) {
	if err := ctx.Err(); err != nil {
		return PathWitness{}, false, err
	}
	if p.Empty() || !s.hasNode(start) || int(target) >= s.nv {
		return PathWitness{}, false, nil
	}
	if p.AcceptsEpsilon() && (target < 0 || target == start) {
		return PathWitness{Nodes: []NodeID{start}, Word: words.Epsilon}, true, nil
	}
	if target < 0 && !s.hasFirstSymEdge(p, start) {
		// No out-edge of ν can start an accepted word: not selected.
		return PathWitness{}, false, nil
	}

	nq := p.NumStates
	sc := s.getProduct(s.nv * nq)
	defer s.putProductSparse(sc)
	parents := make(map[uint64]parentStep)
	co := &s.out

	startIdx := uint64(int(start)*nq + int(p.Start))
	sc.bits.Set(int(startIdx))
	sc.touched = append(sc.touched, startIdx)
	queue := append(sc.stack[:0], startIdx)
	defer func() { sc.stack = queue[:0] }()

	accept := func(v NodeID, q int32) bool {
		return p.Final[q] && (target < 0 || v == target)
	}
	for qi := 0; qi < len(queue); qi++ {
		if qi%ctxCheckInterval == ctxCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return PathWitness{}, false, err
			}
		}
		idx := queue[qi]
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
			for _, e := range rs.edges[rs.offs[si]:rs.offs[si+1]] {
				nidx := uint64(int(e.To)*nq + tb)
				if !sc.bits.TrySet(int(nidx)) {
					continue
				}
				sc.touched = append(sc.touched, nidx)
				parents[nidx] = parentStep{prev: idx, sym: alphabet.Symbol(sym)}
				if accept(e.To, t) {
					return reconstruct(parents, startIdx, nidx, nq), true, nil
				}
				queue = append(queue, nidx)
			}
		}
	}
	return PathWitness{}, false, nil
}

// reconstruct walks the parent chain from the accepting pair back to the
// start pair, rebuilding the node sequence and the word.
func reconstruct(parents map[uint64]parentStep, start, end uint64, nq int) PathWitness {
	depth := 0
	for idx := end; idx != start; idx = parents[idx].prev {
		depth++
	}
	pw := PathWitness{
		Nodes: make([]NodeID, depth+1),
		Word:  make(words.Word, depth),
	}
	idx := end
	for i := depth; i > 0; i-- {
		step := parents[idx]
		pw.Nodes[i] = NodeID(idx / uint64(nq))
		pw.Word[i-1] = step.sym
		idx = step.prev
	}
	pw.Nodes[0] = NodeID(start / uint64(nq))
	return pw
}

// CountPlanCtx returns, per node ν, the number of distinct lengths
// ℓ ≤ maxLen such that some accepting path of exactly ℓ edges starts at ν
// — the count accumulator of the unified evaluation API. Level ℓ of the
// backward propagation is the set S_ℓ of product pairs from which an
// accepting pair is reachable in exactly ℓ steps (S_0 = every (v, final));
// ν gains a count at every level containing (ν, Start). Unlike the
// fixpoint propagation of SelectMonadicPlan, levels are relaxed exactly
// (deduplicated within a level, never across levels — a pair may recur at
// several lengths), so maxLen bounds the work at O(maxLen·|E|·|Q|).
func (s *Snapshot) CountPlanCtx(ctx context.Context, p *plan.Plan, maxLen int) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nv, nq := s.nv, p.NumStates
	counts := make([]int32, nv)
	if nv == 0 || nq == 0 || p.Empty() || maxLen < 0 {
		return counts, nil
	}

	// Length 0: ε is an accepting path of every node iff Start is final.
	if p.Final[p.Start] {
		for v := range counts {
			counts[v]++
		}
	}

	sc := s.getProduct(nv * nq)
	defer s.putProductClean(sc) // every level clears the bits it set
	cur := sc.stack[:0]
	next := sc.next[:0]
	defer func() { sc.stack, sc.next = cur[:0], next[:0] }()

	// S_0: every (v, f) with f final and reachable from Start — pairs
	// outside Reach can never terminate a run that began at (ν, Start).
	for _, f := range p.Finals {
		if !p.Reach[f] {
			continue
		}
		for v := 0; v < nv; v++ {
			cur = append(cur, uint64(v*nq+int(f)))
		}
	}

	startState := int(p.Start)
	for level := 1; level <= maxLen && len(cur) > 0; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, _ = s.relaxPlanBackward(p, cur, next[:0], sc.bits, nil, nil)
		// Read the level off and reset the per-level dedup set.
		for _, idx := range next {
			if int(idx%uint64(nq)) == startState {
				counts[idx/uint64(nq)]++
			}
			sc.bits.Clear(int(idx))
		}
		cur, next = next, cur
	}
	return counts, nil
}
