package engine

// Deterministic traffic replay: the read mix of the closed-loop load
// driver (internal/loadgen) and of perfbench's clients. Each read draws
// one recorded workload entry — an (AQ class, expr, semantics, anchor)
// tuple, typically loaded from a pqworkload file — under a configurable
// class-weight mix. The engine deliberately does not import
// internal/workload: the caller (pqbench, tests) converts file entries
// to ReplayEntry values, so the dependency points from the tooling down
// into the engine and never sideways.

import (
	"fmt"
	"sort"
)

// ReplayEntry is one recorded request of a replay mix.
type ReplayEntry struct {
	// Class is the entry's workload class (e.g. "AQ7") — the label its
	// latency histogram is reported under.
	Class string
	// Expr is the query expression.
	Expr string
	// Semantics is the evaluation semantics ("nodes", "pairsFrom", ...;
	// empty defaults to "nodes").
	Semantics string
	// From is the anchor node name (anchored entries only).
	From string
}

// Anchoring filters a replay mix by tier.
type Anchoring int

const (
	// AnchoredAny replays anchored and unanchored entries as recorded.
	AnchoredAny Anchoring = iota
	// AnchoredOnly keeps only anchored (From != "") entries.
	AnchoredOnly
	// AnchoredNone keeps only unanchored entries.
	AnchoredNone
)

// ReplaySpec configures workload-file replay: the read mix a closed-loop
// driver draws from.
type ReplaySpec struct {
	// Entries is the recorded workload (required).
	Entries []ReplayEntry
	// ClassWeights is the class mix: the probability of drawing an entry
	// of class C is proportional to ClassWeights[C], split evenly across
	// that class's entries. Classes absent from the map default to
	// weight 1; weight 0 excludes a class entirely. A nil map replays
	// all classes equally.
	ClassWeights map[string]float64
	// Anchored filters the mix by tier before weighting.
	Anchored Anchoring
}

// Flatten applies the spec's tier filter and class weights, returning
// the draw-ready entry pool and its chooser. The class weight is split
// evenly across a class's surviving entries so the class-level mix
// matches the requested weights regardless of how many templates and
// anchors the source file records per class. Every driver draws through
// it, so a seed gives one draw sequence in process and over HTTP.
func (spec *ReplaySpec) Flatten() ([]ReplayEntry, WeightedChooser, error) {
	var kept []ReplayEntry
	classCount := make(map[string]int)
	for _, re := range spec.Entries {
		switch spec.Anchored {
		case AnchoredOnly:
			if re.From == "" {
				continue
			}
		case AnchoredNone:
			if re.From != "" {
				continue
			}
		}
		if w, ok := spec.ClassWeights[re.Class]; ok && w == 0 {
			continue
		}
		kept = append(kept, re)
		classCount[re.Class]++
	}
	if len(kept) == 0 {
		return nil, WeightedChooser{}, fmt.Errorf("engine: replay spec has no entries left after filtering")
	}
	weights := make([]float64, len(kept))
	for i, re := range kept {
		w := 1.0
		if cw, ok := spec.ClassWeights[re.Class]; ok {
			w = cw
		}
		if w < 0 {
			return nil, WeightedChooser{}, fmt.Errorf("engine: negative replay weight %v for class %s", w, re.Class)
		}
		weights[i] = w / float64(classCount[re.Class])
	}
	chooser, err := NewWeightedChooser(weights)
	if err != nil {
		return nil, WeightedChooser{}, fmt.Errorf("engine: replay spec: %w", err)
	}
	return kept, chooser, nil
}

// WeightedChooser draws indices proportionally to a fixed weight slice
// via its cumulative-sum array. Zero-weight indices are never drawn: a
// zero weight leaves cum[i] == cum[i-1], and the strict `cum[i] > x`
// predicate steps past equal entries. Draws allocate nothing.
type WeightedChooser struct {
	cum   []float64
	total float64
}

// NewWeightedChooser validates and precomputes the cumulative weights.
func NewWeightedChooser(weights []float64) (WeightedChooser, error) {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return WeightedChooser{}, fmt.Errorf("negative weight %v at index %d", w, i)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return WeightedChooser{}, fmt.Errorf("weights sum to zero")
	}
	return WeightedChooser{cum: cum, total: total}, nil
}

// Choose maps a uniform draw u ∈ [0,1) to an index.
func (c WeightedChooser) Choose(u float64) int {
	x := u * c.total
	return sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > x })
}
