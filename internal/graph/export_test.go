package graph

import (
	"context"

	"pathquery/internal/plan"
)

// SelectBinaryFromForward is SelectBinaryFromPlan with the backward side
// disabled — the forward-only evaluation every level-synchronous RPQ
// engine runs, kept as the baseline the direction-optimizing test and
// benchmark compare against.
func (s *Snapshot) SelectBinaryFromForward(p *plan.Plan, u NodeID) []NodeID {
	nodes, _ := s.selectBinaryFrom(context.Background(), p, u, false)
	return nodes
}

// OverflowDelta makes the pending publication one whose delta overflowed
// maxDeltaEdges, without adding a million edges.
func (g *Graph) OverflowDelta() { g.overflowDelta() }
