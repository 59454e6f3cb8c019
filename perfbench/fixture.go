package main

// Benchmark inputs, all made from the seed. The traffic is the traffic
// the repository already defines, not a mix of the benchmark's own:
//
//   - the graph has the size and label law of datasets.Synthetic(5000, _),
//     the graph BenchmarkReplayMixed serves: three edges per node and 20
//     labels with Zipf(1) frequencies;
//   - reads are the workload forge's output (internal/workload.Forge) for
//     the eight abstract classes BenchmarkReplayMixed replays, with the
//     forge's default anchors and more templates (templatesPerClass),
//     drawn by engine.ReplaySpec's even class mix, as engine.RunLoad and
//     pqbench -replay draw them;
//   - writes are the one-edge mutations of engine.RunLoad and
//     pqbench -replay;
//   - learning tasks follow the paper's static experiment
//     (internal/experiments.RunStatic): the goals syn1..syn3 of
//     datasets.SynQueriesOn, and samples of a fraction of the nodes drawn
//     uniformly and labeled by the goal.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/workload"
)

// graphSpec sizes the generated graph.
type graphSpec struct {
	nodes, edges, labels int
}

// synthetic is datasets.Synthetic(5000, _)'s size.
var synthetic = graphSpec{nodes: 5000, edges: 15000, labels: 20}

func labelName(i int) string { return fmt.Sprintf("l%02d", i) }

// genEdges generates a directed multigraph with a power-law degree
// distribution and Zipf-distributed labels (the Chung-Lu model): the
// node of out-degree rank r is an edge's source with probability
// proportional to 1/sqrt(r+1), targets likewise by an independent
// in-degree ranking, and label i is drawn with probability proportional
// to 1/(i+1). The seed decides which node holds which rank and the
// wiring, but not the shape of the degree distribution, so graphs of
// different seeds cost about the same to query. The benchmark makes its
// own graph rather than calling datasets.Synthetic so that its inputs do
// not change with the program it measures.
func genEdges(rng *rand.Rand, spec graphSpec, n int) []edge {
	cumulative := func(n int, weight func(i int) float64) []float64 {
		cum := make([]float64, n)
		total := 0.0
		for i := range cum {
			total += weight(i)
			cum[i] = total
		}
		return cum
	}
	draw := func(cum []float64) int {
		return sort.SearchFloat64s(cum, rng.Float64()*cum[len(cum)-1])
	}
	labels := cumulative(spec.labels, func(i int) float64 { return 1 / float64(i+1) })
	ranks := cumulative(spec.nodes, func(r int) float64 { return 1 / math.Sqrt(float64(r+1)) })
	outNode, inNode := rng.Perm(spec.nodes), rng.Perm(spec.nodes)
	edges := make([]edge, n)
	for i := range edges {
		u, v := outNode[draw(ranks)], inNode[draw(ranks)]
		edges[i] = edge{From: fmt.Sprintf("n%d", u), Label: labelName(draw(labels)), To: fmt.Sprintf("n%d", v)}
	}
	return edges
}

// toGraph loads edges into a graph of the program's own type, the input
// the forge and the goal calibration take.
func toGraph(edges []edge) *graph.Graph {
	g := graph.New(nil)
	for _, e := range edges {
		g.AddEdgeByName(e.From, e.Label, e.To)
	}
	return g
}

// replayClasses are the abstract classes BenchmarkReplayMixed forges.
var replayClasses = []string{"AQ1", "AQ2", "AQ7", "AQ15", "AQ18", "AQ22", "AQ27", "AQ28"}

// templatesPerClass is the forge's templates per class. The forge's
// default is 2; with 2, a class's cost hinges on the few labels its
// templates drew, and the cost of a run on the seed.
const templatesPerClass = 128

// readReq is one /v1/query request body. Like pqbench -replay, it sets
// no limit, so every answer carries its whole selection.
type readReq struct {
	Query     string `json:"query"`
	Semantics string `json:"semantics"`
	From      string `json:"from,omitempty"`
}

// forgeReads forges the replay workload on g and flattens it into the
// entries and the class-weighted chooser the clients draw from.
func forgeReads(g *graph.Graph, seed int64) ([]readReq, engine.WeightedChooser, error) {
	f, err := workload.Forge(g.Snapshot(), workload.ForgeConfig{Seed: seed, Classes: replayClasses, TemplatesPerClass: templatesPerClass})
	if err != nil {
		return nil, engine.WeightedChooser{}, err
	}
	spec := &engine.ReplaySpec{}
	for _, e := range f.Entries {
		spec.Entries = append(spec.Entries, engine.ReplayEntry{
			Class: e.Class, Expr: e.Expr, Semantics: e.Semantics, From: e.From,
		})
	}
	entries, chooser, err := spec.Flatten()
	if err != nil {
		return nil, engine.WeightedChooser{}, err
	}
	reads := make([]readReq, len(entries))
	for i, e := range entries {
		reads[i] = readReq{Query: e.Expr, Semantics: e.Semantics, From: e.From}
	}
	return reads, chooser, nil
}

// mutation is engine.RunLoad's default write: one edge of a label no
// query mentions, between fresh nodes. The nodes come from a ring of
// mutationRing names instead of an endless chain, so that the node count
// stops growing after that many writes: otherwise a version that serves
// faster writes more in a run, grows the answers of the queries that
// select every node, and is measured on a costlier graph.
func mutation(i int) edge {
	return edge{From: fmt.Sprintf("replay-%d", i%mutationRing), Label: "replay", To: fmt.Sprintf("replay-%d", (i+1)%mutationRing)}
}

const mutationRing = 256

// learnTask is one /learn request: positive and negative example nodes
// for a goal query.
type learnTask struct {
	Pos []string `json:"pos"`
	Neg []string `json:"neg"`
}

// learnFractions are the first three points of the static experiment's
// labeled-fraction sweep (experiments.DefaultFractions): 5, 25 and 50
// labeled nodes. The larger fractions are left out: at 5% a task takes
// the learner 2.5 to 14 ms at the median, depending on the seed, and at
// 10% up to a quarter of a second, too long for a run to finish enough
// of them that its mix does not depend on where it stops.
var learnFractions = []float64{0.001, 0.005, 0.01}

// learnTrials is the number of samples drawn per goal and fraction.
const learnTrials = 256

// maxWitness bounds the shortest goal path of every positive example.
// The goal is consistent with its sample, so each positive has a
// consistent path of at most this length, and the learner's default
// schedule, which searches up to length 8, never abstains. The paper's
// protocol keeps samples the learner abstains on; the benchmark redraws
// them, and those with no positive or no negative example, so that no
// operation fails.
const maxWitness = 6

// learnTasks returns, for each goal syn1..syn3 calibrated on g,
// learnTrials samples for each of learnFractions.
func learnTasks(rng *rand.Rand, g *graph.Graph, ref *refGraph) ([]learnTask, error) {
	goals := datasets.SynQueriesOn(g.Snapshot())
	var groups [][]learnTask // by goal and fraction
	for _, goal := range goals {
		a, err := ref.compile(goal.Expr)
		if err != nil {
			return nil, err
		}
		sel := ref.selectNodes(a)
		for _, fraction := range learnFractions {
			var tasks []learnTask
			want := max(1, int(fraction*float64(len(ref.names))))
			for trial, attempts := 0, 0; trial < learnTrials; attempts++ {
				if attempts > 1000*learnTrials {
					return nil, fmt.Errorf("could not draw samples of %s at fraction %g", goal.Expr, fraction)
				}
				var task learnTask
				short := true
				for _, v := range rng.Perm(len(ref.names))[:want] {
					if !sel[v] {
						task.Neg = append(task.Neg, ref.names[v])
					} else if short = ref.acceptsWithin(a, v, maxWitness); !short {
						break
					} else {
						task.Pos = append(task.Pos, ref.names[v])
					}
				}
				if short && len(task.Pos) > 0 && len(task.Neg) > 0 {
					tasks = append(tasks, task)
					trial++
				}
			}
			groups = append(groups, tasks)
		}
	}
	// Trial-major order: every run of len(groups) tasks holds one task
	// of each goal and fraction, so any part of a run has the whole mix.
	var tasks []learnTask
	for trial := 0; trial < learnTrials; trial++ {
		for _, g := range groups {
			tasks = append(tasks, g[trial])
		}
	}
	return tasks, nil
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

// median returns the median of values.
func median(values []float64) float64 {
	values = append([]float64(nil), values...)
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}
