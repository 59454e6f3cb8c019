package query

// The unified evaluation surface: one Req/Answer pair covering every
// result shape the system serves. Each Semantics is an accumulator over
// the same forward/backward product expansion (internal/graph), so adding
// a result shape means adding a case here — not a new verb on Query, a new
// engine method, and a new HTTP endpoint.

import (
	"context"
	"fmt"

	"pathquery/internal/graph"
	"pathquery/internal/plan"
)

// Semantics selects the result shape of one evaluation.
type Semantics uint8

const (
	// SemanticsNodes is the paper's monadic semantics: the nodes ν with
	// L(q) ∩ paths_G(ν) ≠ ∅.
	SemanticsNodes Semantics = iota
	// SemanticsPairsFrom is binary semantics anchored at From: all v with
	// (From, v) ∈ q(G) (Appendix B).
	SemanticsPairsFrom
	// SemanticsWitness is monadic selection plus proof: for each selected
	// node, the canonical-minimal labeled path witnessing the selection.
	SemanticsWitness
	// SemanticsCount counts, per node, the distinct accepting path lengths
	// up to MaxLen.
	SemanticsCount
	// SemanticsShortest returns the shortest witness per node (no From) or
	// per pair (From, v) (with From).
	SemanticsShortest
)

// semanticsNames are the wire names of the /v1/query protocol.
var semanticsNames = [...]string{"nodes", "pairsFrom", "witness", "count", "shortest"}

// NumSemantics is the number of defined Semantics values — the size of
// per-semantics instrumentation arrays.
const NumSemantics = len(semanticsNames)

func (s Semantics) String() string {
	if int(s) < len(semanticsNames) {
		return semanticsNames[s]
	}
	return fmt.Sprintf("Semantics(%d)", uint8(s))
}

// ParseSemantics maps a wire name to its Semantics. The empty string
// defaults to SemanticsNodes, keeping the minimal request {"query": ...}
// meaningful.
func ParseSemantics(name string) (Semantics, error) {
	if name == "" {
		return SemanticsNodes, nil
	}
	for i, n := range semanticsNames {
		if n == name {
			return Semantics(i), nil
		}
	}
	return 0, fmt.Errorf("query: unknown semantics %q (want one of nodes, pairsFrom, witness, count, shortest)", name)
}

// Req is one evaluation request at the snapshot level: the semantics plus
// its arguments, with node references already resolved to ids. The engine
// builds it from the wire-level Request; library callers build it
// directly.
type Req struct {
	// Semantics selects the result shape.
	Semantics Semantics
	// From anchors binary semantics (pairsFrom always, shortest
	// optionally); meaningful only when HasFrom.
	From    graph.NodeID
	HasFrom bool
	// Limit bounds the number of witness paths computed (witness/shortest;
	// 0 = one per selected node). Nodes and counts are never truncated
	// here — presentation-level truncation is the wire layer's job.
	Limit int
	// MaxLen bounds the path lengths counted (count semantics; 0 = the
	// default 2·|Q|+1, the paper's characteristic SCP bound).
	MaxLen int
}

// NodeCount is one count-semantics row: the node and its number of
// distinct accepting path lengths.
type NodeCount struct {
	Node  graph.NodeID
	Count int
}

// Answer is the result of one evaluation. Exactly one of Nodes, Paths,
// Counts is populated, per the request's semantics; Count is always the
// total number of matches (selected nodes, selected pairs, nodes with a
// nonzero count), even when Limit truncated Paths.
type Answer struct {
	Semantics Semantics
	Count     int
	Nodes     []graph.NodeID
	Paths     []graph.PathWitness
	Counts    []NodeCount
}

// DefaultMaxLen returns the count-semantics length bound used when the
// request does not set one: 2·|Q|+1, the characteristic-sample SCP bound
// of Theorem 3.5.
func (q *Query) DefaultMaxLen() int { return 2*q.Size() + 1 }

// EvaluateReq runs one evaluation of q on an epoch snapshot under the
// requested semantics — the single entry point behind Engine.Evaluate and
// the /v1/query endpoint. ctx cancels the underlying product traversal:
// level-synchronous passes check between levels, worklist passes every few
// thousand pops, so a pathological evaluation aborts promptly with
// ctx.Err().
//
// For nodes semantics under a non-empty masked-layout plan it also
// returns the product fixpoint the evaluation computed: the per-node
// state masks the engine's result cache keeps, so that a later epoch can
// regrow the answer from a graph delta (graph.RegrowMonadicMasked)
// instead of recomputing it. For every other combination the masks are
// nil, and the engine recomputes the entry once its plan's alphabet is
// written.
func (q *Query) EvaluateReq(ctx context.Context, s *graph.Snapshot, req Req) (Answer, []uint64, error) {
	p := q.Plan()
	ans := Answer{Semantics: req.Semantics}
	switch req.Semantics {
	case SemanticsNodes:
		if p.Layout == plan.LayoutMasked && !p.Empty() {
			nodes, masks, err := s.SelectMonadicMaskedState(ctx, p)
			if err != nil {
				return Answer{}, nil, err
			}
			ans.Nodes, ans.Count = nodes, len(nodes)
			return ans, masks, nil
		}
		vec, err := s.SelectMonadicPlanCtx(ctx, p)
		if err != nil {
			return Answer{}, nil, err
		}
		sel := NewSelection(vec)
		ans.Nodes, ans.Count = sel.Nodes(), sel.Count()

	case SemanticsPairsFrom:
		if !req.HasFrom {
			return Answer{}, nil, fmt.Errorf("query: pairsFrom semantics requires a from node")
		}
		nodes, err := s.SelectBinaryFromPlanCtx(ctx, p, req.From)
		if err != nil {
			return Answer{}, nil, err
		}
		ans.Nodes, ans.Count = nodes, len(nodes)

	case SemanticsWitness, SemanticsShortest:
		// One implementation for both path-shaped semantics: the witness
		// BFS returns the canonical-minimal — and therefore shortest —
		// path, so shortest without an anchor is witness, and shortest
		// with one is the pair-witness variant of the same reconstruction.
		if req.HasFrom {
			if req.Semantics == SemanticsWitness {
				return Answer{}, nil, fmt.Errorf("query: witness semantics is monadic and takes no from node; use shortest for pair witnesses")
			}
			nodes, err := s.SelectBinaryFromPlanCtx(ctx, p, req.From)
			if err != nil {
				return Answer{}, nil, err
			}
			ans.Count = len(nodes)
			ans.Paths, err = q.witnessPaths(ctx, s, nodes, req.Limit, req.From)
			if err != nil {
				return Answer{}, nil, err
			}
		} else {
			vec, err := s.SelectMonadicPlanCtx(ctx, p)
			if err != nil {
				return Answer{}, nil, err
			}
			sel := NewSelection(vec)
			ans.Count = sel.Count()
			ans.Paths, err = q.witnessPaths(ctx, s, sel.Nodes(), req.Limit, -1)
			if err != nil {
				return Answer{}, nil, err
			}
		}

	case SemanticsCount:
		maxLen := req.MaxLen
		if maxLen <= 0 {
			maxLen = q.DefaultMaxLen()
		}
		counts, err := s.CountPlanCtx(ctx, p, maxLen)
		if err != nil {
			return Answer{}, nil, err
		}
		for v, c := range counts {
			if c > 0 {
				ans.Counts = append(ans.Counts, NodeCount{Node: graph.NodeID(v), Count: int(c)})
			}
		}
		ans.Count = len(ans.Counts)

	default:
		return Answer{}, nil, fmt.Errorf("query: unknown semantics %v", req.Semantics)
	}
	return ans, nil, nil
}

// witnessPaths reconstructs one witness per node of set (up to limit;
// 0 = all). from < 0 means monadic witnesses starting at each node;
// from ≥ 0 means pair witnesses from that node to each node of set. Every
// node of set is selected by construction, so each reconstruction finds a
// path.
func (q *Query) witnessPaths(ctx context.Context, s *graph.Snapshot, set []graph.NodeID, limit int, from graph.NodeID) ([]graph.PathWitness, error) {
	if len(set) == 0 {
		return nil, nil
	}
	n := len(set)
	if limit > 0 && limit < n {
		n = limit
	}
	pl := q.Plan()
	paths := make([]graph.PathWitness, 0, n)
	for _, v := range set[:n] {
		var (
			pw  graph.PathWitness
			ok  bool
			err error
		)
		if from < 0 {
			pw, ok, err = s.WitnessPathPlan(ctx, pl, v)
		} else {
			pw, ok, err = s.WitnessPairPathPlan(ctx, pl, from, v)
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			// Unreachable when set came from the matching selection pass on
			// the same snapshot; guard against misuse anyway.
			return nil, fmt.Errorf("query: no witness for selected node %d", v)
		}
		paths = append(paths, pw)
	}
	return paths, nil
}
