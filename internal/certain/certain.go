// Package certain implements the informativeness analysis of Section 4.2.
// Given a consistent sample S over G, an unlabeled node is *certain* when
// labeling it adds no information: every consistent query selects it
// (Cert+) or none does (Cert−). Lemma 4.1 characterizes both via path-
// language inclusions:
//
//	ν ∈ Cert+(G,S) iff ∃ν' ∈ S+ with paths(ν') ⊆ paths(S−) ∪ paths(ν),
//	ν ∈ Cert−(G,S) iff paths(ν) ⊆ paths(S−).
//
// A node is informative iff it is unlabeled and not certain. Deciding this
// exactly is PSPACE-complete (Lemma 4.2); the exact deciders here run the
// inclusion test of package scp — an unbounded Coverage.Smallest over the
// lazily determinized right-hand side (exponential worst case, fine on the
// paper-scale graphs) — and the interactive strategies use the k-bounded
// approximation from the same package instead.
package certain

import (
	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/scp"
)

// Label classifies a node relative to a sample.
type Label int

const (
	// Informative nodes contribute to the learning process when labeled.
	Informative Label = iota
	// CertainPositive nodes are selected by every consistent query.
	CertainPositive
	// CertainNegative nodes are selected by no consistent query.
	CertainNegative
	// AlreadyLabeled nodes are in the sample.
	AlreadyLabeled
)

func (l Label) String() string {
	switch l {
	case Informative:
		return "informative"
	case CertainPositive:
		return "certain+"
	case CertainNegative:
		return "certain-"
	case AlreadyLabeled:
		return "labeled"
	}
	return "unknown"
}

// IsCertainPositive decides ν ∈ Cert+(G,S) exactly (Lemma 4.1, case 1).
// One coverage of S− ∪ {ν} serves every positive's inclusion test.
func IsCertainPositive(snap *graph.Snapshot, s core.Sample, nu graph.NodeID) bool {
	cov := scp.NewCoverage(snap, append(append([]graph.NodeID{}, s.Neg...), nu))
	for _, p := range s.Pos {
		if included(cov, p) {
			return true
		}
	}
	return false
}

// IsCertainNegative decides ν ∈ Cert−(G,S) exactly (Lemma 4.1, case 2).
func IsCertainNegative(snap *graph.Snapshot, s core.Sample, nu graph.NodeID) bool {
	return included(scp.NewCoverage(snap, s.Neg), nu)
}

// included reports whether every path of ν, of any length, is in the
// coverage's language.
func included(cov *scp.Coverage, nu graph.NodeID) bool {
	_, escapes, _ := cov.Smallest(nu, -1)
	return !escapes
}

// Classify returns the exact label of ν relative to S.
func Classify(snap *graph.Snapshot, s core.Sample, nu graph.NodeID) Label {
	return classify(snap, s, scp.NewCoverage(snap, s.Neg), nu)
}

// classify is Classify with the coverage of S− supplied, so Propagate
// determinizes paths(S−) once for every node's Cert− test.
func classify(snap *graph.Snapshot, s core.Sample, neg *scp.Coverage, nu graph.NodeID) Label {
	if _, ok := s.Labeled(nu); ok {
		return AlreadyLabeled
	}
	if included(neg, nu) {
		return CertainNegative
	}
	if IsCertainPositive(snap, s, nu) {
		return CertainPositive
	}
	return Informative
}

// IsInformative decides informativeness exactly. This is the
// PSPACE-complete problem of Lemma 4.2; use only on small graphs.
func IsInformative(snap *graph.Snapshot, s core.Sample, nu graph.NodeID) bool {
	return Classify(snap, s, nu) == Informative
}

// IsKInformative is the practical approximation of Section 4.2: ν has a
// path of length ≤ k not covered by a negative example. k-informative
// implies informative; the converse may fail for the given k.
func IsKInformative(snap *graph.Snapshot, s core.Sample, nu graph.NodeID, k int) bool {
	if _, ok := s.Labeled(nu); ok {
		return false
	}
	return scp.NewCoverage(snap, s.Neg).IsKInformative(nu, k)
}

// Propagate computes the exact certain labels of every unlabeled node —
// the "propagate label for ν" step of the interactive scenario (Figure 9),
// which prunes nodes that became uninformative after a new label. Returns
// the classified label per node id.
func Propagate(snap *graph.Snapshot, s core.Sample) []Label {
	neg := scp.NewCoverage(snap, s.Neg)
	out := make([]Label, snap.NumNodes())
	for v := range out {
		out[v] = classify(snap, s, neg, graph.NodeID(v))
	}
	return out
}
