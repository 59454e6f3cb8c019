// Package interactive implements the paper's interactive scenario
// (Section 4, Figure 9): starting from an empty sample, repeatedly choose
// a node according to a strategy Υ, show the user its neighborhood, ask
// for a label, propagate it, re-learn, and halt when the learned query
// satisfies the user.
//
// Strategies kR and kS (Section 4.2) avoid the PSPACE-hardness of exact
// informativeness (Lemma 4.2) by restricting attention to k-informative
// nodes — nodes with at least one path of length ≤ k not covered by a
// negative example. kR picks a random k-informative node; kS picks the
// k-informative node with the fewest non-covered k-paths, favoring nodes
// whose SCP computation has the smallest search space. When no
// k-informative node exists, k is increased (the dynamic schedule of
// Section 5.1).
package interactive

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pathquery/internal/core"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/scp"
)

// Oracle answers the membership question of step 5 of Figure 9: would the
// user select this node?
type Oracle interface {
	// Label returns true when the node belongs to the user's goal result.
	Label(nu graph.NodeID) bool
}

// QueryOracle simulates a user holding a hidden goal query, as the paper's
// experiments do: nodes are labeled according to the goal's selection.
type QueryOracle struct {
	goal     *query.Query
	selected []bool
}

// NewQueryOracle precomputes the goal's selection on a pinned epoch
// snapshot.
func NewQueryOracle(snap *graph.Snapshot, goal *query.Query) *QueryOracle {
	return &QueryOracle{goal: goal, selected: goal.Evaluate(snap).Vector()}
}

// Label reports whether the goal selects nu.
func (o *QueryOracle) Label(nu graph.NodeID) bool { return o.selected[nu] }

// Goal returns the hidden query.
func (o *QueryOracle) Goal() *query.Query { return o.goal }

// Selection returns the goal's selection vector (the experiments' ground
// truth).
func (o *QueryOracle) Selection() []bool { return o.selected }

// Context is the read-only view a strategy receives. All graph reads go
// through Snap, the epoch snapshot the session is pinned to.
type Context struct {
	Snap   *graph.Snapshot
	Sample core.Sample
	// Coverage indexes paths_G(S−); shared by candidate tests at the
	// current k. Not safe for concurrent use — strategies that scan in
	// parallel build per-worker coverages via NewCoverage.
	Coverage *scp.Coverage
	K        int
	Rng      *rand.Rand
}

// NewCoverage builds a fresh coverage index over the current negatives on
// the pinned snapshot, for use by concurrent scans.
func (c *Context) NewCoverage() *scp.Coverage {
	return scp.NewCoverage(c.Snap, c.Sample.Neg)
}

// Unlabeled returns the ids of nodes without a label, in increasing order.
func (c *Context) Unlabeled() []graph.NodeID {
	labeled := make(map[graph.NodeID]bool, c.Sample.Size())
	for _, v := range c.Sample.Pos {
		labeled[v] = true
	}
	for _, v := range c.Sample.Neg {
		labeled[v] = true
	}
	out := make([]graph.NodeID, 0, c.Snap.NumNodes()-len(labeled))
	for v := 0; v < c.Snap.NumNodes(); v++ {
		if !labeled[graph.NodeID(v)] {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Strategy proposes the next node to label, or ok=false when no
// k-informative node exists at the context's k.
type Strategy interface {
	Name() string
	Next(ctx *Context) (graph.NodeID, bool)
}

// KR is the random strategy: a uniformly random k-informative node.
type KR struct{}

// Name returns "kR".
func (KR) Name() string { return "kR" }

// Next scans unlabeled nodes in random order and returns the first
// k-informative one.
func (KR) Next(ctx *Context) (graph.NodeID, bool) {
	candidates := ctx.Unlabeled()
	ctx.Rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	for _, nu := range candidates {
		if ctx.Coverage.IsKInformative(nu, ctx.K) {
			return nu, true
		}
	}
	return 0, false
}

// KS is the smallest-count strategy: the k-informative node with the
// fewest non-covered k-paths (ties broken by node id). The scan is
// parallelized across CPU cores with per-worker coverage indexes.
type KS struct{}

// Name returns "kS".
func (KS) Name() string { return "kS" }

// Next returns the k-informative node minimizing CountNonCovered.
func (KS) Next(ctx *Context) (graph.NodeID, bool) {
	candidates := ctx.Unlabeled()
	type best struct {
		node  graph.NodeID
		count int
		ok    bool
	}
	workers := runtime.NumCPU()
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers == 0 {
		return 0, false
	}
	results := make([]best, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cov := ctx.NewCoverage()
			local := best{}
			for i := w; i < len(candidates); i += workers {
				nu := candidates[i]
				n := cov.CountNonCovered(nu, ctx.K)
				if n == 0 {
					continue // not k-informative
				}
				if !local.ok || n < local.count || (n == local.count && nu < local.node) {
					local = best{nu, n, true}
				}
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	overall := best{}
	for _, r := range results {
		if !r.ok {
			continue
		}
		if !overall.ok || r.count < overall.count || (r.count == overall.count && r.node < overall.node) {
			overall = r
		}
	}
	return overall.node, overall.ok
}

// Options tunes a session.
type Options struct {
	Strategy Strategy // default KS
	StartK   int      // default 2
	MaxK     int      // default 8
	// MaxInteractions caps the number of labels; 0 means |V|.
	MaxInteractions int
	// Seed drives kR's randomness; sessions are deterministic given a seed.
	Seed int64
	// NeighborhoodRadius controls the zoom-out of step 4; default is the
	// current k, per the paper's suggestion.
	NeighborhoodRadius int
	// LearnerOptions passes through to the learner at each round; K is
	// overridden by the session's dynamic schedule.
	LearnerOptions core.Options
	// Observer, when set, receives session events (proposals, labels,
	// learned queries) — the hook for interactive UIs.
	Observer Observer
}

func (o Options) withDefaults() Options {
	if o.Strategy == nil {
		o.Strategy = KS{}
	}
	if o.StartK == 0 {
		o.StartK = 2
	}
	if o.MaxK == 0 {
		o.MaxK = 8
	}
	return o
}

// Interaction records one round of the session.
type Interaction struct {
	Node     graph.NodeID
	Positive bool
	K        int
	// Neighborhood is the node set shown to the user (step 4 of Figure 9).
	Neighborhood []graph.NodeID
	// Elapsed is the time spent computing this proposal and re-learning —
	// the paper's "time between interactions".
	Elapsed time.Duration
}

// Result summarizes a finished session.
type Result struct {
	Query        *query.Query
	Interactions []Interaction
	// Halted tells why the session stopped.
	Halted HaltReason
	// FinalK is the SCP bound in force at the end.
	FinalK int
}

// Labels returns the number of interactions (labels given).
func (r Result) Labels() int { return len(r.Interactions) }

// LabelFraction returns labels / |V|, the paper's Table 2 measure.
func (r Result) LabelFraction(snap *graph.Snapshot) float64 {
	if snap.NumNodes() == 0 {
		return 0
	}
	return float64(r.Labels()) / float64(snap.NumNodes())
}

// MeanTimeBetweenInteractions averages the per-round elapsed times.
func (r Result) MeanTimeBetweenInteractions() time.Duration {
	if len(r.Interactions) == 0 {
		return 0
	}
	var total time.Duration
	for _, it := range r.Interactions {
		total += it.Elapsed
	}
	return total / time.Duration(len(r.Interactions))
}

// HaltReason explains why a session ended.
type HaltReason int

const (
	// HaltSatisfied: the halt condition accepted the learned query.
	HaltSatisfied HaltReason = iota
	// HaltNoInformativeNodes: no k-informative node remains at MaxK.
	HaltNoInformativeNodes
	// HaltMaxInteractions: the interaction budget ran out.
	HaltMaxInteractions
)

func (h HaltReason) String() string {
	switch h {
	case HaltSatisfied:
		return "satisfied"
	case HaltNoInformativeNodes:
		return "no-informative-nodes"
	case HaltMaxInteractions:
		return "max-interactions"
	}
	return "unknown"
}

// HaltCondition decides whether the user is satisfied with the learned
// query (which may be nil when the learner abstained).
type HaltCondition func(learned *query.Query) bool

// ExactMatch is the strongest halt condition of the experiments: the
// learned query selects exactly the same nodes as the goal — F1 = 1 —
// on a pinned epoch snapshot.
func ExactMatch(snap *graph.Snapshot, goal *query.Query) HaltCondition {
	want := goal.Evaluate(snap).Vector()
	return func(learned *query.Query) bool {
		if learned == nil {
			return false
		}
		got := learned.Evaluate(snap).Vector()
		for v := range want {
			if want[v] != got[v] {
				return false
			}
		}
		return true
	}
}

// Session runs the interactive loop of Figure 9. A session is pinned to
// one epoch snapshot: proposals, labels, and every re-learning round
// observe the same immutable graph, so sessions run safely while a writer
// publishes newer epochs underneath.
type Session struct {
	snap   *graph.Snapshot
	opts   Options
	sample core.Sample
	k      int
	rng    *rand.Rand
	cov    *scp.Coverage
}

// NewSession starts a session with an empty sample, pinned to the given
// epoch snapshot.
func NewSession(snap *graph.Snapshot, opts Options) *Session {
	opts = opts.withDefaults()
	return &Session{
		snap: snap,
		opts: opts,
		k:    opts.StartK,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		cov:  scp.NewCoverage(snap, nil),
	}
}

// Snapshot returns the epoch snapshot the session is pinned to.
func (s *Session) Snapshot() *graph.Snapshot { return s.snap }

// Sample returns the labels collected so far.
func (s *Session) Sample() core.Sample { return s.sample }

// K returns the current SCP bound.
func (s *Session) K() int { return s.k }

// Propose picks the next node to ask about, escalating k while no
// k-informative node exists (Section 5.1's interactive schedule). ok=false
// means no informative node remains even at MaxK.
func (s *Session) Propose() (graph.NodeID, bool) {
	for {
		ctx := &Context{Snap: s.snap, Sample: s.sample, Coverage: s.cov, K: s.k, Rng: s.rng}
		if nu, ok := s.opts.Strategy.Next(ctx); ok {
			return nu, true
		}
		if s.k >= s.opts.MaxK {
			return 0, false
		}
		s.k++
	}
}

// Neighborhood returns the zoom-out region shown to the user for nu
// (step 4 of Figure 9): all nodes within the configured radius (default:
// the current k).
func (s *Session) Neighborhood(nu graph.NodeID) []graph.NodeID {
	r := s.opts.NeighborhoodRadius
	if r == 0 {
		r = s.k
	}
	return s.snap.Neighborhood(nu, r)
}

// Label records the user's answer and propagates it (the coverage index is
// rebuilt when the negative set changes). A node outside the session's
// snapshot is rejected and leaves the sample unchanged.
func (s *Session) Label(nu graph.NodeID, positive bool) error {
	if nu < 0 || int(nu) >= s.snap.NumNodes() {
		return fmt.Errorf("interactive: node id %d out of range for epoch %d (%d nodes)",
			nu, s.snap.Epoch(), s.snap.NumNodes())
	}
	if _, ok := s.sample.Labeled(nu); ok {
		return fmt.Errorf("interactive: node %d already labeled", nu)
	}
	if positive {
		s.sample.Pos = append(s.sample.Pos, nu)
	} else {
		s.sample.Neg = append(s.sample.Neg, nu)
		s.cov = scp.NewCoverage(s.snap, s.sample.Neg)
	}
	return nil
}

// Learn runs the learner on the current sample with the session's k
// schedule. A nil query with nil error means the learner abstained.
func (s *Session) Learn() (*query.Query, error) {
	opt := s.opts.LearnerOptions
	opt.K = 0
	opt.StartK = s.opts.StartK
	opt.MaxK = s.opts.MaxK
	r, err := core.LearnDetailed(s.snap, s.sample, opt)
	if errors.Is(err, core.ErrAbstain) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if r.K > s.k {
		s.k = r.K
	}
	return r.Query, nil
}

// Run drives the loop against an oracle until halt accepts the learned
// query, the interaction budget is exhausted, or no informative node
// remains. It returns the final learned query and per-round diagnostics.
func (s *Session) Run(oracle Oracle, halt HaltCondition) (*Result, error) {
	budget := s.opts.MaxInteractions
	if budget == 0 {
		budget = s.snap.NumNodes()
	}
	res := &Result{}
	var learned *query.Query
	for {
		if learned != nil && halt(learned) {
			res.Query = learned
			res.Halted = HaltSatisfied
			res.FinalK = s.k
			return res, nil
		}
		if len(res.Interactions) >= budget {
			res.Query = learned
			res.Halted = HaltMaxInteractions
			res.FinalK = s.k
			return res, nil
		}
		start := time.Now()
		nu, ok := s.Propose()
		if !ok {
			res.Query = learned
			res.Halted = HaltNoInformativeNodes
			res.FinalK = s.k
			return res, nil
		}
		neighborhood := s.Neighborhood(nu)
		if s.opts.Observer != nil {
			s.opts.Observer.Proposed(nu, neighborhood, s.k)
		}
		positive := oracle.Label(nu)
		if err := s.Label(nu, positive); err != nil {
			return nil, err
		}
		if s.opts.Observer != nil {
			s.opts.Observer.Labeled(nu, positive)
		}
		q, err := s.Learn()
		if err != nil {
			return nil, err
		}
		learned = q
		if s.opts.Observer != nil {
			s.opts.Observer.Learned(q)
		}
		res.Interactions = append(res.Interactions, Interaction{
			Node:         nu,
			Positive:     positive,
			K:            s.k,
			Neighborhood: neighborhood,
			Elapsed:      time.Since(start),
		})
	}
}
