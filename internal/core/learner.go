// Package core implements the paper's primary contribution: the learning
// algorithms for path queries from node examples.
//
//   - Learn (Algorithm 1): monadic semantics. Select the smallest
//     consistent path (SCP) of length ≤ k for each positive node, build
//     their prefix tree acceptor, generalize by RPNI-style state merging
//     while no negative node's path language meets the automaton, and
//     return the query iff it selects every positive node.
//   - LearnBinary (Algorithm 2): binary semantics; identical shape with
//     pair path languages paths2.
//   - LearnNary (Algorithm 3): runs LearnBinary per tuple position.
//
// The learners follow the paper's "learning with abstain" framework
// (Definition 3.4): they run in polynomial time and either return a query
// consistent with the sample or ErrAbstain — the paper's null, meaning
// "not enough examples were provided", which sidesteps the
// PSPACE-completeness of consistency checking (Lemma 3.2).
//
// Every learner runs against one immutable epoch Snapshot. Pinning a
// snapshot makes learning safe to run concurrently with writers mutating
// and publishing newer epochs — the serving engine's Learn service relies
// on this. One learn call is serial and starts no goroutine; concurrency
// sits where the traffic is, in the server running learn requests side by
// side and in the experiments fanning out across goals. The SCP searches
// read the determinized path language of S−, which depends on the
// negatives alone and not on k, so one lazily-determinized coverage index
// per call serves every positive in every round of the k schedule. The
// monadic merger checks each candidate with one early-exit forward search
// over the negatives, run on the live merger
// (graph.Snapshot.CoversAnyMerger) with no automaton built for it.
package core

import (
	"errors"
	"fmt"

	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/scp"
	"pathquery/internal/words"
)

// ErrAbstain is the paper's null result: no consistent query could be
// constructed efficiently from the given examples, either because the
// sample is inconsistent or because the SCP length bound is too small.
var ErrAbstain = errors.New("core: not enough examples to learn a consistent query (abstain)")

// InconsistentError is the abstain of a sample that Lemma 3.1 proves
// inconsistent: the negatives cover every path of the positive Node, so
// no query selects it, and more examples or a larger k cannot help. It
// matches ErrAbstain under errors.Is.
type InconsistentError struct {
	Node graph.NodeID
	// Name is Node's name on the snapshot learned on.
	Name string
}

func (e *InconsistentError) Error() string {
	return fmt.Sprintf("core: inconsistent sample: the negatives cover every path of positive node %q (abstain)", e.Name)
}

// Is reports ErrAbstain as the error's kind.
func (e *InconsistentError) Is(target error) bool { return target == ErrAbstain }

// Sample is a set of examples over a graph: nodes the user wants selected
// (Pos) and nodes she does not (Neg).
type Sample struct {
	Pos []graph.NodeID
	Neg []graph.NodeID
}

// Validate rejects samples labeling a node both positive and negative.
func (s Sample) Validate() error {
	seen := make(map[graph.NodeID]bool, len(s.Pos))
	for _, v := range s.Pos {
		seen[v] = true
	}
	for _, v := range s.Neg {
		if seen[v] {
			return fmt.Errorf("core: node %d labeled both positive and negative", v)
		}
	}
	return nil
}

// ValidateOn is Validate plus a bounds check of every example against the
// snapshot: an id outside [0, NumNodes) — a node from a different graph,
// or one created after the epoch was published — is an error here instead
// of a panic deep inside the CSR scans.
func (s Sample) ValidateOn(snap *graph.Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := checkBounds(snap, s.Pos); err != nil {
		return err
	}
	return checkBounds(snap, s.Neg)
}

// checkBounds rejects node ids outside the snapshot's node range.
func checkBounds(snap *graph.Snapshot, set []graph.NodeID) error {
	for _, v := range set {
		if v < 0 || int(v) >= snap.NumNodes() {
			return fmt.Errorf("core: node id %d out of range for epoch %d (%d nodes)",
				v, snap.Epoch(), snap.NumNodes())
		}
	}
	return nil
}

// Labeled reports whether ν carries a label and which.
func (s Sample) Labeled(nu graph.NodeID) (positive, ok bool) {
	for _, v := range s.Pos {
		if v == nu {
			return true, true
		}
	}
	for _, v := range s.Neg {
		if v == nu {
			return false, true
		}
	}
	return false, false
}

// Size returns the number of examples.
func (s Sample) Size() int { return len(s.Pos) + len(s.Neg) }

// Options tunes the learner.
type Options struct {
	// K is the fixed maximal SCP length (the parameter k of Algorithm 1):
	// a positive K is the one-round schedule K..K. K = 0 selects the
	// dynamic schedule of Section 5.1: start at StartK and increase while
	// the learned query misses a positive.
	K int
	// StartK and MaxK bound the dynamic schedule; defaults 2 and 8.
	StartK, MaxK int
	// DisableGeneralization skips the state-merging phase and returns the
	// disjunction of the SCPs — the ablation discussed in Section 5.2
	// ("the positive effect of the generalization ... is generally of 1%
	// in F1 score").
	DisableGeneralization bool
}

// withDefaults resolves the k schedule to the rounds StartK..MaxK.
func (o Options) withDefaults() Options {
	if o.K > 0 {
		o.StartK, o.MaxK = o.K, o.K
	}
	if o.StartK == 0 {
		o.StartK = 2
	}
	if o.MaxK == 0 {
		o.MaxK = 8
	}
	return o
}

// Result reports what the learner did, alongside the learned query.
type Result struct {
	Query *query.Query
	// SCPs are the smallest consistent paths selected for the positives
	// that had one within the bound, in input order.
	SCPs []words.Word
	// K is the SCP length bound that succeeded.
	K int
	// Merges is the number of successful state merges during
	// generalization.
	Merges int
}

// Learn runs Algorithm 1 against a pinned epoch snapshot and returns the
// learned query, or ErrAbstain.
func Learn(snap *graph.Snapshot, s Sample, opt Options) (*query.Query, error) {
	r, err := LearnDetailed(snap, s, opt)
	if err != nil {
		return nil, err
	}
	return r.Query, nil
}

// LearnDetailed is Learn exposing diagnostics. Every read — SCP
// selection, merge consistency checks, the final positives check — runs
// against snap, so the learner observes exactly one epoch no matter what
// the owning graph's writer does meanwhile. An abstain is ErrAbstain, or
// an *InconsistentError naming the positive that no query selects.
func LearnDetailed(snap *graph.Snapshot, s Sample, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := s.ValidateOn(snap); err != nil {
		return nil, err
	}
	if len(s.Pos) == 0 {
		// With no positive examples any query selecting nothing on the
		// negatives would do, but none is distinguished; the interactive
		// scenario interprets abstain as "keep asking".
		return nil, ErrAbstain
	}
	// Schedule (Section 5.1): start with k = StartK; if for a given k the
	// learned query does not select all positive nodes, increment k and
	// iterate, until a round proves that no k can succeed. The coverage
	// index does not depend on k, so every round shares the subsets the
	// earlier rounds determinized.
	cov := scp.NewCoverage(snap, s.Neg)
	for k := opt.StartK; k <= opt.MaxK; k++ {
		r, err := learnFixedK(snap, s, opt, cov, k)
		if r != nil || err != nil {
			return r, err
		}
	}
	return nil, ErrAbstain
}

// learnFixedK runs one round of the schedule at SCP bound k; a nil
// result and error means the round abstains. A positive whose SCP search
// ran out of states below the bound has all of its paths covered by the
// negatives, so no round at any k can select it (Lemma 3.1): the round
// returns an *InconsistentError naming it, and the schedule stops.
func learnFixedK(snap *graph.Snapshot, s Sample, opt Options, cov *scp.Coverage, k int) (*Result, error) {
	// Lines 1-2: select the SCP of length ≤ k for every positive that has
	// one, in input order.
	paths := make([]words.Word, 0, len(s.Pos))
	for _, nu := range s.Pos {
		w, ok, cut := cov.Smallest(nu, k)
		if ok {
			paths = append(paths, w)
		} else if !cut {
			return nil, &InconsistentError{Node: nu, Name: snap.NodeName(nu)}
		}
	}
	if len(paths) == 0 {
		return nil, nil
	}
	res := &Result{SCPs: paths, K: k}

	// Line 3: prefix tree acceptor of the SCPs.
	pta := automata.BuildPTA(snap.Alphabet().Size(), paths, nil)

	// Lines 4-5: generalize by state merging while consistent — no
	// negative node may gain a path in the candidate language. Each
	// candidate is searched in place on the merger, with no automaton
	// built for it.
	m := automata.NewMerger(pta)
	if !opt.DisableGeneralization {
		m.Generalize(func() bool { return !snap.CoversAnyMerger(m, s.Neg) })
		res.Merges = pta.NumStates() - len(m.Representatives())
	}

	// Lines 6-7: the query must select every positive node — including
	// those whose SCP was longer than k.
	for _, nu := range s.Pos {
		if !snap.CoversAnyMerger(m, []graph.NodeID{nu}) {
			return nil, nil
		}
	}
	// Return the prefix-free canonical representative of the learned
	// query's equivalence class (Section 2); node selection is unchanged.
	// query.FromDFA minimizes, so the cut automaton is minimized once.
	res.Query = query.FromDFA(snap.Alphabet(), m.DFA().CutAtFinals())
	return res, nil
}

// Consistent decides whether a sample is consistent (Lemma 3.1): every
// positive node has a path not covered by the negatives. The decision is
// exact and therefore PSPACE-hard in general (Lemma 3.2) — the subset
// construction it runs can be exponential in |S−|'s reachable region. Use
// on small graphs, or bound the search with ConsistentWithin.
func Consistent(snap *graph.Snapshot, s Sample) bool {
	return ConsistentWithin(snap, s, -1)
}

// ConsistentWithin is the k-bounded approximation of Consistent: it only
// certifies consistency witnessed by paths of length ≤ k. It can report
// false for samples that are consistent only via longer paths. k < 0 is
// unbounded, which is Consistent.
func ConsistentWithin(snap *graph.Snapshot, s Sample, k int) bool {
	cov := scp.NewCoverage(snap, s.Neg)
	for _, nu := range s.Pos {
		if !cov.IsKInformative(nu, k) {
			return false
		}
	}
	return true
}
