// Package pathquery learns path queries on graph databases from node
// examples, implementing Bonifati, Ciucanu & Lemay, "Learning Path Queries
// on Graph Databases" (EDBT 2015).
//
// A graph database is a directed, edge-labeled graph. A path query is a
// regular expression q evaluated under monadic semantics: q selects node ν
// iff some path starting at ν spells a word of L(q). Given nodes the user
// labeled positive ("I want this in the result") or negative, Learn
// returns a query consistent with the labels, generalizing from the
// smallest consistent path of each positive via RPNI-style state merging.
// When the examples are insufficient, Learn returns an error matching
// ErrAbstain under errors.Is — the paper's "learning with abstain"
// (consistency checking is PSPACE-complete, so no polynomial learner can
// decide it exactly). Where the learner proves the sample inconsistent,
// that error is an *InconsistentError naming the positive no query
// selects.
//
// A Graph is the writer: it adds nodes and edges and publishes immutable
// epoch Snapshots. Every read — learning, evaluation, sessions — takes a
// Snapshot, so any number of goroutines may read while one writer keeps
// mutating and publishing newer epochs.
//
// # Quick start
//
//	g := pathquery.NewGraph(nil)
//	g.AddEdgeByName("N1", "tram", "N4")
//	g.AddEdgeByName("N4", "cinema", "C1")
//	n1, _ := g.NodeByName("N1")
//	c1, _ := g.NodeByName("C1")
//	q, err := pathquery.Learn(g.Snapshot(), pathquery.Sample{
//	    Pos: []pathquery.NodeID{n1},
//	    Neg: []pathquery.NodeID{c1},
//	}, pathquery.Options{})
//	// q selects exactly the nodes from which a tram·cinema path leaves.
//
// Interactive learning (Section 4 of the paper) starts with no examples
// and asks the user to label proposed nodes until the learned query
// matches their intent:
//
//	sess := pathquery.NewSession(g.Snapshot(), pathquery.SessionOptions{})
//	res, err := sess.Run(oracle, halt)
//
// # Serving
//
// The serving engine evaluates through one unified surface:
// Engine.Evaluate(ctx, Request) answers every result shape — monadic
// nodes, binary pairs, witness paths, accepting-length counts, shortest
// witnesses — from one request/answer pair, with the context canceling
// the product traversal:
//
//	e := pathquery.NewEngine(g, pathquery.EngineOptions{})
//	ans, err := e.Evaluate(ctx, pathquery.Request{
//	    Query: "(tram+bus)*·cinema", Semantics: "witness",
//	})
//
// The same surface is the wire protocol: NewEngineHandler serves it as
// POST /v1/query and POST /v1/batch (see internal/engine.NewHandler for
// the format); there is no other evaluation endpoint.
//
// The subpackages under internal implement the substrates: automata
// (NFA/DFA/RPNI machinery), graph (storage and product constructions),
// scp (smallest-consistent-path search), charsample (the Theorem 3.5
// characteristic-sample construction), hardness (the Lemma 3.2/3.3
// reductions), datasets and experiments (the paper's evaluation).
package pathquery

import (
	"net/http"

	"pathquery/internal/alphabet"
	"pathquery/internal/certain"
	"pathquery/internal/charsample"
	"pathquery/internal/core"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/metrics"
	"pathquery/internal/query"
)

// Core types, re-exported for the public API.
type (
	// Graph is a directed edge-labeled graph database.
	Graph = graph.Graph
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// Alphabet interns edge labels.
	Alphabet = alphabet.Alphabet
	// Query is a path query (regular expression + canonical DFA).
	Query = query.Query
	// NaryQuery is an n-ary path query (Appendix B).
	NaryQuery = query.Nary
	// Sample is a set of positive/negative node examples.
	Sample = core.Sample
	// Pair is a binary-semantics example.
	Pair = core.Pair
	// PairSample is a set of pair examples.
	PairSample = core.PairSample
	// TupleSample is a set of n-ary examples.
	TupleSample = core.TupleSample
	// Options tunes the learner (SCP bound k, dynamic schedule, ablation).
	Options = core.Options
	// Result carries the learned query plus diagnostics.
	Result = core.Result
	// Session is an interactive learning session.
	Session = interactive.Session
	// SessionOptions tunes an interactive session.
	SessionOptions = interactive.Options
	// SessionResult summarizes a finished session.
	SessionResult = interactive.Result
	// Oracle answers "would you select this node?".
	Oracle = interactive.Oracle
	// HaltCondition decides when the user is satisfied.
	HaltCondition = interactive.HaltCondition
	// Strategy proposes nodes to label (KR, KS).
	Strategy = interactive.Strategy
	// Confusion scores a learned query against a goal.
	Confusion = metrics.Confusion
	// Snapshot is an immutable epoch view of a graph.
	Snapshot = graph.Snapshot
	// Engine is the concurrent query-serving layer: epoch snapshots, plan
	// and result caches with single-flight, and batched evaluation.
	Engine = engine.Engine
	// EngineOptions tunes an Engine.
	EngineOptions = engine.Options
	// EngineStats is a point-in-time counter snapshot of an Engine,
	// including the read-time result-cache revalidation breakdown
	// (entries retained, incrementally regrown, and dropped).
	EngineStats = engine.Stats
	// EdgeSpec names one edge for Engine.Mutate.
	EdgeSpec = engine.EdgeSpec
	// EngineLearnResult is the outcome of Engine.Learn: the learned query
	// installed as a serving plan, plus its selection on the pinned epoch.
	EngineLearnResult = engine.LearnResult
	// Selection is the outcome of one monadic evaluation pass.
	Selection = query.Selection
	// Request is one evaluation request on the unified API: the query, the
	// semantics ("nodes", "pairsFrom", "witness", "count", "shortest") and
	// its arguments — the argument of Engine.Evaluate and the body of
	// POST /v1/query.
	Request = engine.Request
	// Answer is the unified evaluation result, pinned to its epoch.
	Answer = engine.Answer
	// APIError is a request error with a stable machine-readable code —
	// the "error.code" of the /v1/query wire protocol.
	APIError = engine.APIError
	// Semantics selects the result shape of one evaluation.
	Semantics = query.Semantics
	// PathWitness is one reconstructed accepting path: the nodes along it
	// and the word it spells.
	PathWitness = graph.PathWitness
)

// The evaluation semantics of the unified API (see Request.Semantics for
// the wire names).
const (
	SemanticsNodes     = query.SemanticsNodes
	SemanticsPairsFrom = query.SemanticsPairsFrom
	SemanticsWitness   = query.SemanticsWitness
	SemanticsCount     = query.SemanticsCount
	SemanticsShortest  = query.SemanticsShortest
)

// ErrAbstain is matched, under errors.Is, by the error returned when no
// consistent query can be constructed from the given examples — the
// paper's null answer.
var ErrAbstain = core.ErrAbstain

// InconsistentError is the abstain of a sample whose positive Node has
// every path covered by the negatives (Lemma 3.1), so that no query
// selects it.
type InconsistentError = core.InconsistentError

// NewGraph returns an empty graph over alpha (nil for a fresh alphabet).
func NewGraph(alpha *Alphabet) *Graph { return graph.New(alpha) }

// NewEngine wraps g in a concurrent query-serving engine and publishes
// its first epoch. From then on, mutate through the engine and read from
// any number of goroutines: selections pin immutable epoch snapshots,
// repeated queries skip parse/determinize/minimize via the plan cache,
// and identical concurrent requests share one product pass. Engine.Learn
// runs Algorithm 1 against the served epoch — safely concurrent with
// mutations — and installs the learned query as a serving plan.
func NewEngine(g *Graph, opt EngineOptions) *Engine { return engine.New(g, opt) }

// NewEngineHandler exposes e as a JSON-over-HTTP API at the root — the
// per-graph surface that cmd/pqserve mounts under /v1/graphs/{name}/:
// the versioned unified protocol (POST /v1/query and /v1/batch serving
// every semantics with a structured error envelope), plus mutate, learn,
// stats and plans.
func NewEngineHandler(e *Engine) http.Handler { return engine.NewHandler(e) }

// NewAlphabet returns an empty label table.
func NewAlphabet() *Alphabet { return alphabet.New() }

// ParseQuery parses a regular expression (ε, labels, +, · or ., *) over
// alpha into a query, interning new labels.
func ParseQuery(alpha *Alphabet, src string) (*Query, error) {
	return query.Parse(alpha, src)
}

// Learn runs the paper's Algorithm 1 on a monadic sample against a pinned
// epoch snapshot: the learner observes exactly that epoch, so it is safe
// to run while a writer keeps mutating and publishing newer epochs (see
// also Engine.Learn, which adds plan-cache installation).
func Learn(s *Snapshot, sample Sample, opt Options) (*Query, error) {
	return core.Learn(s, sample, opt)
}

// LearnDetailed is Learn with diagnostics (selected SCPs, final k, merge
// count).
func LearnDetailed(s *Snapshot, sample Sample, opt Options) (*Result, error) {
	return core.LearnDetailed(s, sample, opt)
}

// LearnBinary runs Algorithm 2 on pair examples.
func LearnBinary(s *Snapshot, sample PairSample, opt Options) (*Query, error) {
	return core.LearnBinary(s, sample, opt)
}

// LearnNary runs Algorithm 3 on tuple examples.
func LearnNary(s *Snapshot, sample TupleSample, opt Options) (*NaryQuery, error) {
	return core.LearnNary(s, sample, opt)
}

// Consistent decides sample consistency exactly (Lemma 3.1). Exponential
// worst case — the problem is PSPACE-complete (Lemma 3.2); intended for
// small graphs and diagnostics.
func Consistent(s *Snapshot, sample Sample) bool { return core.Consistent(s, sample) }

// NewSession starts an interactive learning session with an empty sample,
// pinned to the snapshot.
func NewSession(s *Snapshot, opts SessionOptions) *Session {
	return interactive.NewSession(s, opts)
}

// NewQueryOracle simulates a user holding the given goal query.
func NewQueryOracle(s *Snapshot, goal *Query) Oracle {
	return interactive.NewQueryOracle(s, goal)
}

// ExactMatch halts a session when the learned query selects exactly the
// goal's nodes (F1 = 1).
func ExactMatch(s *Snapshot, goal *Query) HaltCondition {
	return interactive.ExactMatch(s, goal)
}

// Score rates a learned query against a goal query on s, viewing both as
// binary node classifiers.
func Score(s *Snapshot, goal, learned *Query) Confusion {
	return metrics.Score(goal.Evaluate(s).Vector(), learned.Evaluate(s).Vector())
}

// CharacteristicSample builds a graph and sample from which Learn is
// guaranteed to identify q exactly (Theorem 3.5), with the SCP bound
// CharacteristicK(q).
func CharacteristicSample(q *Query) (*Graph, Sample, error) {
	return charsample.Build(q)
}

// CharacteristicK returns the SCP length bound 2·n+1 Theorem 3.5
// prescribes for q.
func CharacteristicK(q *Query) int { return charsample.KFor(q) }

// IsInformative decides exactly whether labeling ν would add information
// (Section 4.2). PSPACE-complete in general (Lemma 4.2); intended for
// small graphs.
func IsInformative(s *Snapshot, sample Sample, nu NodeID) bool {
	return certain.IsInformative(s, sample, nu)
}
