// Package datasets builds the evaluation workloads of Section 5.
//
// The paper evaluates on (i) the AliBaba protein-interaction graph
// (~3k nodes, ~8k edges) with six real biological queries of known
// selectivities (Table 1), and (ii) synthetic scale-free graphs with a
// Zipfian edge-label distribution (10k/20k/30k nodes, |E| = 3·|V|) with
// three queries of shape A·B*·C at 1%/15%/40% selectivity.
//
// The AliBaba graph is not redistributable, so this package generates a
// deterministic stand-in with the same size, a heavy-tailed degree
// distribution, and a Zipfian label distribution, and defines the six
// bio-query *shapes* from Table 1 over frequency-ranked label classes so
// that the selectivity ordering of the paper is preserved. The synthetic
// generator matches the paper's stated properties directly, and the syn
// queries are calibrated against the generated graph to hit the paper's
// selectivity targets.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pathquery/internal/alphabet"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/regex"
)

// Zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s, deterministically from
// the provided rng.
type Zipf struct {
	cum []float64
}

// NewZipf builds a sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	return &Zipf{cum: cum}
}

// Sample draws a rank.
func (z *Zipf) Sample(rng *rand.Rand) int {
	x := rng.Float64()
	return sort.SearchFloat64s(z.cum, x)
}

// ScaleFreeConfig parametrizes the generator.
type ScaleFreeConfig struct {
	Nodes  int
	Edges  int
	Labels int
	// ZipfS is the label-distribution exponent (1.0 in the experiments).
	ZipfS float64
	// Seed makes generation deterministic.
	Seed int64
	// NamePrefix prefixes node names (default "n").
	NamePrefix string
}

// ScaleFree generates a directed scale-free multigraph: edge targets are
// chosen by preferential attachment on in-degree and sources by
// preferential attachment on out-degree (each with +1 smoothing), which
// yields the heavy-tailed degree distribution of real-world graphs; labels
// are drawn Zipfian by frequency rank (label "l00" most frequent).
func ScaleFree(cfg ScaleFreeConfig) *graph.Graph {
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "n"
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	alpha := alphabet.New()
	for l := 0; l < cfg.Labels; l++ {
		alpha.Intern(labelName(l))
	}
	g := graph.New(alpha)
	for i := 0; i < cfg.Nodes; i++ {
		g.AddNode(fmt.Sprintf("%s%d", cfg.NamePrefix, i))
	}
	zipf := NewZipf(cfg.Labels, cfg.ZipfS)

	// Preferential attachment via repeated-endpoint sampling: keep a pool
	// of endpoints where each node appears once plus once per incident
	// edge, so sampling the pool is degree-proportional.
	outPool := make([]graph.NodeID, 0, cfg.Nodes+cfg.Edges)
	inPool := make([]graph.NodeID, 0, cfg.Nodes+cfg.Edges)
	for i := 0; i < cfg.Nodes; i++ {
		outPool = append(outPool, graph.NodeID(i))
		inPool = append(inPool, graph.NodeID(i))
	}
	for e := 0; e < cfg.Edges; e++ {
		from := outPool[rng.Intn(len(outPool))]
		to := inPool[rng.Intn(len(inPool))]
		sym := alphabet.Symbol(zipf.Sample(rng))
		g.AddEdge(from, sym, to)
		outPool = append(outPool, from)
		inPool = append(inPool, to)
	}
	// Generated graphs are immutable from here on: build the CSR read
	// view before the graph fans out to queries and benchmarks.
	g.Snapshot()
	return g
}

func labelName(rank int) string { return fmt.Sprintf("l%02d", rank) }

// classExpr renders label ranks as a disjunction expression.
func classExpr(ranks []int) string {
	if len(ranks) == 1 {
		return labelName(ranks[0])
	}
	s := "("
	for i, r := range ranks {
		if i > 0 {
			s += "+"
		}
		s += labelName(r)
	}
	return s + ")"
}

func rankRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for r := lo; r <= hi; r++ {
		out = append(out, r)
	}
	return out
}

// NamedQuery is a workload query with the selectivity the paper reports.
type NamedQuery struct {
	Name string
	// Expr is the regular expression source.
	Expr string
	// Query is the compiled query over the dataset's alphabet.
	Query *query.Query
	// PaperSelectivity is the fraction of nodes the paper reports selected
	// (Table 1 for bio queries; 1%/15%/40% for syn).
	PaperSelectivity float64
}

// AliBabaNodes and AliBabaEdges match the paper's extracted semantic
// subgraph: "about 3k nodes and 8k edges".
const (
	AliBabaNodes  = 3000
	AliBabaEdges  = 8000
	AliBabaLabels = 30
)

// AliBaba generates the deterministic AliBaba stand-in graph. The steeper
// Zipf exponent (1.3) gives the label-frequency tail needed for the most
// selective bio queries.
func AliBaba() *graph.Graph {
	return ScaleFree(ScaleFreeConfig{
		Nodes:      AliBabaNodes,
		Edges:      AliBabaEdges,
		Labels:     AliBabaLabels,
		ZipfS:      1.3,
		Seed:       20150323, // EDBT 2015 opening day; fixed for reproducibility
		NamePrefix: "p",
	})
}

// BioQueries returns the six biological queries of Table 1, with the
// paper's reported selectivities, compiled over g's alphabet. The shapes
// are the paper's; the classes A, C, E, I are disjunctions of up to 10
// labels (with overlaps, as the paper describes), chosen by frequency rank
// so that the selectivity ordering bio1 < bio2 < bio3 < bio4 ≈ bio5 < bio6
// carries over to the stand-in graph. The rare-label choice evaluates
// candidate queries on s, so the returned workload is a pure function of
// the snapshot even while writers advance the graph.
func BioQueries(s *graph.Snapshot) []NamedQuery {
	// Classes over frequency-ranked labels (rank 0 = most frequent).
	A := classExpr(rankRange(2, 7))   // broad mid-frequency
	I := classExpr(rankRange(5, 12))  // overlapping A, less frequent
	C := classExpr(rankRange(10, 15)) // mid-tail
	E := classExpr(rankRange(4, 8))   // overlapping A and I
	a := labelName(9)
	// b is the tail label making bio1 the most selective query that still
	// selects at least one node — the paper likewise "retained those
	// queries that select at least one node on the graph".
	b := labelName(chooseRareLabel(s, A))
	defs := []struct {
		name, expr string
		sel        float64
	}{
		{"bio1", fmt.Sprintf("%s·%s·%s*", b, A, A), 0.0003},
		{"bio2", fmt.Sprintf("%s·%s*·%s·%s·%s*", C, C, a, A, A), 0.002},
		{"bio3", fmt.Sprintf("%s·%s", C, E), 0.03},
		{"bio4", fmt.Sprintf("%s·%s·%s*", I, I, I), 0.11},
		{"bio5", fmt.Sprintf("%s·%s·%s*·%s·%s·%s*", A, A, A, I, I, I), 0.12},
		{"bio6", fmt.Sprintf("%s·%s·%s*", A, A, A), 0.22},
	}
	out := make([]NamedQuery, len(defs))
	for i, d := range defs {
		out[i] = NamedQuery{
			Name:             d.name,
			Expr:             d.expr,
			Query:            query.MustParse(s.Alphabet(), d.expr),
			PaperSelectivity: d.sel,
		}
	}
	return out
}

// chooseRareLabel returns the rank r ≥ 20 minimizing the (non-zero)
// selectivity of labelName(r)·A·A* on the snapshot.
func chooseRareLabel(s *graph.Snapshot, A string) int {
	best, bestSel := 20, math.Inf(1)
	for r := 20; r < s.Alphabet().Size(); r++ {
		expr := fmt.Sprintf("%s·%s·%s*", labelName(r), A, A)
		q, err := query.Parse(s.Alphabet(), expr)
		if err != nil {
			continue
		}
		sel := q.Evaluate(s).Selectivity()
		if sel > 0 && sel < bestSel {
			bestSel = sel
			best = r
		}
	}
	return best
}

// SyntheticSizes are the node counts of the synthetic experiments.
var SyntheticSizes = []int{10000, 20000, 30000}

// Synthetic generates a synthetic scale-free graph with n nodes, 3·n
// edges, and Zipfian labels, as in Section 5.1.
func Synthetic(n int, seed int64) *graph.Graph {
	return ScaleFree(ScaleFreeConfig{
		Nodes:  n,
		Edges:  3 * n,
		Labels: 20,
		ZipfS:  1.0,
		Seed:   seed,
	})
}

// SynTargets are the paper's selectivity targets for syn1..syn3.
var SynTargets = []float64{0.01, 0.15, 0.40}

// SynQueriesOn returns syn1..syn3 — queries of shape A·B*·C — calibrated
// on s to approximate the paper's selectivity targets (1%, 15%, 40%
// "regardless of the actual size of the graph"). Calibration searches over
// class widths for A and C with B fixed mid-weight, evaluating each
// candidate on s and keeping the closest, so concurrent mutations cannot
// skew the search mid-way.
func SynQueriesOn(s *graph.Snapshot) []NamedQuery {
	out := calibrateABC(s, SynTargets)
	for i, target := range SynTargets {
		out[i].Name = fmt.Sprintf("syn%d", i+1)
		out[i].PaperSelectivity = target
	}
	return out
}

// calibrateABC searches start ranks and widths for the classes A and C
// (B fixed as a mid-frequency band, overlapping as the paper allows) and
// returns, for each target, the A·B*·C candidate whose selectivity on the
// snapshot is closest to it, the first in search order on a tie. Each
// candidate is parsed and evaluated on s once, for every target at once,
// so calibration adapts to the generated graph — the paper's queries
// likewise hold their selectivities "regardless of the actual size of the
// graph".
func calibrateABC(s *graph.Snapshot, targets []float64) []NamedQuery {
	best := make([]NamedQuery, len(targets))
	gaps := make([]float64, len(targets))
	for i := range gaps {
		gaps[i] = math.Inf(1)
	}
	labels := s.Alphabet().Size()
	B := classExpr(rankRange(1, 4))
	starts := []int{0, 2, 4, 6, 8, 10, 12, 14, 16}
	widths := []int{1, 2, 3, 4, 6, 8, 10}
	for _, la := range starts {
		for _, wa := range widths {
			if la+wa > labels {
				continue
			}
			for _, lc := range starts {
				for _, wc := range widths {
					if lc+wc > labels {
						continue
					}
					expr := fmt.Sprintf("%s·%s*·%s",
						classExpr(rankRange(la, la+wa-1)), B,
						classExpr(rankRange(lc, lc+wc-1)))
					q, err := query.Parse(s.Alphabet(), expr)
					if err != nil {
						continue
					}
					sel := q.Evaluate(s).Selectivity()
					for i, target := range targets {
						if gap := math.Abs(sel - target); gap < gaps[i] {
							gaps[i] = gap
							best[i] = NamedQuery{Expr: expr, Query: q}
						}
					}
				}
			}
		}
	}
	return best
}

// RandomSample draws a static-protocol sample for a goal query: labeled
// nodes are chosen uniformly at random and labeled by the goal, until
// fraction·|V| examples are collected (Section 5.2's setup). The result
// may contain zero positives for very selective goals at low fractions —
// exactly as in the paper's static experiments. The labels and the node
// universe come from the one epoch snapshot s.
func RandomSample(s *graph.Snapshot, goal *query.Query, fraction float64, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID) {
	sel := goal.Evaluate(s).Vector()
	n := s.NumNodes()
	want := int(fraction * float64(n))
	if want < 1 {
		want = 1
	}
	perm := rng.Perm(n)
	var pos, neg []graph.NodeID
	for _, v := range perm[:want] {
		if sel[v] {
			pos = append(pos, graph.NodeID(v))
		} else {
			neg = append(neg, graph.NodeID(v))
		}
	}
	return pos, neg
}

// Regex exposes the compiled expression of a named query for callers that
// need the AST (e.g. printing with a different alphabet).
func (nq NamedQuery) Regex() *regex.Node { return nq.Query.Regex() }

// DirectionalSkew builds the adversarial shape for forward-only binary
// evaluation under the query a*·b: a dense strongly-connected 'a' core
// (coreNodes nodes, ~8 out-edges each) that a chain of chainLen nodes
// feeds into, with the graph's only 'b' edge at the chain's end. Forward
// evaluation from the chain head floods the whole core for one answer;
// the backward co-accepting set is just the chain, so the
// direction-optimizing evaluator wins by an |E|/|chain| factor. Shared by
// the direction-optimizing benchmark and its correctness tests. Returns
// the frozen graph, the chain head, and the accepting sink.
func DirectionalSkew(coreNodes, chainLen int) (*graph.Graph, graph.NodeID, graph.NodeID) {
	alpha := alphabet.NewSorted("a", "b")
	a, _ := alpha.Lookup("a")
	b, _ := alpha.Lookup("b")
	g := graph.New(alpha)
	core := make([]graph.NodeID, coreNodes)
	for i := range core {
		core[i] = g.AddNode(fmt.Sprintf("core%d", i))
	}
	rng := rand.New(rand.NewSource(11))
	for i := range core {
		g.AddEdge(core[i], a, core[(i+1)%coreNodes])
		for k := 0; k < 7; k++ {
			g.AddEdge(core[i], a, core[rng.Intn(coreNodes)])
		}
	}
	head := g.AddNode("chain0")
	prev := head
	g.AddEdge(head, a, core[0])
	for i := 1; i < chainLen; i++ {
		n := g.AddNode(fmt.Sprintf("chain%d", i))
		g.AddEdge(prev, a, n)
		prev = n
	}
	sink := g.AddNode("sink")
	g.AddEdge(prev, b, sink)
	g.Snapshot()
	return g, head, sink
}
