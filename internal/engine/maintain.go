package engine

import (
	"time"

	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// Result-cache revalidation: a cached answer is checked against the
// snapshot a request pinned at the moment it is read, never in a
// background pass. An entry is valid for the epochs [validFrom, validTo];
// a lookup at a newer epoch has three outcomes:
//
//   - retain — no edge on the plan's alphabet was added since validTo
//     (Snapshot.SymEpoch over the plan's AlphaMask: a max over its symbol
//     bits, no delta-chain walk), so no added edge can lie on any
//     accepting run: validTo advances in place and the lookup stays on
//     the cached-hit path. The ε caveat: a plan accepting ε selects every
//     node under unanchored semantics, so node growth alone grows the
//     answer — such entries are retained only while the node count holds
//     (anchored ones can reach new nodes only through new edges, which
//     the alphabet test already covers). The empty language is retained
//     on any write.
//   - regrow — nodes semantics whose entry carries the monadic fixpoint
//     masks (masked-layout plans): graph.RegrowMonadicMasked extends the
//     cached fixpoint to the new nodes and re-enters the propagation from
//     the edges of DeltaSince(validTo) alone, under defaultRegrowBudget
//     edge relaxations, inside the single flight that replaces the entry.
//     The result is bit-for-bit the from-scratch fixpoint.
//   - recompute — everything else: pairsFrom (its direction-optimizing
//     search reruns faster than a forward fixpoint regrows, and keeps no
//     per-node state), witness/count/shortest (minimality and counts are
//     not monotone under edge inserts), packed-layout plans, spans the
//     fenced delta chain no longer reaches, and regrows whose cost would
//     exceed the budget. The entry is dropped and the flight evaluates
//     from scratch.

// defaultRegrowBudget bounds the edge relaxations one regrow may spend
// before it gives up for a scratch recompute. A relaxation is a few
// nanoseconds, so a regrow stays in the low milliseconds at worst.
const defaultRegrowBudget = 1 << 20

// current reports whether the completed entry e answers for snap,
// retaining it — advancing validTo to snap's epoch — when snap is newer
// but nothing e's answer depends on has changed since validTo. Each
// retain that moves validTo counts once in retained.
func (c *resultCache) current(e *resultEntry, key resultKey, snap *graph.Snapshot) bool {
	epoch := snap.Epoch()
	if epoch < e.validFrom {
		return false
	}
	to := e.validTo.Load()
	if epoch <= to {
		return true
	}
	if e.q == nil {
		return false
	}
	if p := e.q.Plan(); !p.Empty() {
		if snap.SymEpoch(p.AlphaMask) > to {
			return false
		}
		if key.from < 0 && p.AcceptsEpsilon() && snap.NumNodes() > e.nv {
			return false
		}
	}
	// No write on the alphabet in (to, epoch] also means none in any
	// shorter span, so racing retains may each advance validTo.
	for to < epoch {
		if e.validTo.CompareAndSwap(to, epoch) {
			c.retained.Add(1)
			break
		}
		to = e.validTo.Load()
	}
	return true
}

// regrow fills the flight e, which replaces the stale entry prev at snap's
// epoch, by folding the delta since prev.validTo into prev's cached
// monadic fixpoint. It reports false, leaving e for a scratch compute,
// when prev keeps no fixpoint, the delta chain does not reach back to
// validTo, or the regrow would exceed budget edge relaxations.
func (c *resultCache) regrow(e, prev *resultEntry, snap *graph.Snapshot, budget int) bool {
	if prev.masks == nil {
		return false
	}
	span, ok := snap.DeltaSince(prev.validTo.Load())
	if !ok {
		return false
	}
	start := time.Now()
	masks, newly, ok := snap.RegrowMonadicMasked(prev.q.Plan(), prev.masks, &span, budget)
	if !ok {
		return false
	}
	nodes := mergeNodes(prev.ans.Nodes, newly)
	e.ans = query.Answer{Semantics: prev.ans.Semantics, Count: len(nodes), Nodes: nodes}
	e.q, e.masks = prev.q, masks
	c.regrowHist.Observe(time.Since(start))
	c.regrown.Add(1)
	return true
}

// mergeNodes merges two sorted, disjoint id lists — a cached answer and
// the nodes a regrow newly selected — into one sorted list. When nothing
// was added the cached slice is returned as-is (it is immutable and
// shared).
func mergeNodes(a, b []graph.NodeID) []graph.NodeID {
	if len(b) == 0 {
		return a
	}
	out := make([]graph.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
