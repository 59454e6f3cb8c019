// Package sampling implements the paper's first future-work direction
// (Section 6): "to sample a graph and find informative nodes on
// representative samples, in the spirit of [31]" — Leskovec & Faloutsos,
// "Sampling from large graphs" (KDD 2006).
//
// Two of that paper's best-performing samplers are provided — random walk
// with flying back and forest fire — plus Session, which runs the
// interactive scenario's node proposal on the sampled subgraph while
// labels, learning and the halt condition still apply to the full graph.
// Samplers and sessions read one pinned epoch snapshot.
// Proposals become cheap on graphs where scanning all nodes per
// interaction is too slow; the price is that nodes outside the sample are
// only reached after the sample is exhausted.
package sampling

import (
	"math/rand"
	"sort"

	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/scp"
)

// Config tunes a sampler.
type Config struct {
	// TargetNodes is the desired sample size.
	TargetNodes int
	// Seed makes sampling deterministic.
	Seed int64
	// FlyBack is the random-walk restart probability (Leskovec &
	// Faloutsos use 0.15); 0 selects 0.15.
	FlyBack float64
	// BurnForward is the forest-fire forward-burning probability
	// (their recommended 0.7); 0 selects 0.7.
	BurnForward float64
}

func (c Config) withDefaults() Config {
	if c.FlyBack == 0 {
		c.FlyBack = 0.15
	}
	if c.BurnForward == 0 {
		c.BurnForward = 0.7
	}
	return c
}

// RandomWalk samples nodes by a random walk with flying back: walk the
// graph (both edge directions, so weakly-connected regions are covered),
// restarting at the origin with probability FlyBack, and restarting at a
// fresh origin when stuck. Returns the sampled node set in increasing id
// order. The walk runs entirely on the pinned epoch snapshot.
func RandomWalk(s *graph.Snapshot, cfg Config) []graph.NodeID {
	cfg = cfg.withDefaults()
	n := s.NumNodes()
	if cfg.TargetNodes >= n {
		return allNodes(n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	visited := make(map[graph.NodeID]bool, cfg.TargetNodes)
	origin := graph.NodeID(rng.Intn(n))
	cur := origin
	visited[origin] = true
	// Cap total steps to avoid spinning on pathological graphs.
	for steps := 0; len(visited) < cfg.TargetNodes && steps < 100*cfg.TargetNodes; steps++ {
		if rng.Float64() < cfg.FlyBack {
			cur = origin
			continue
		}
		nbrs := neighbors(s, cur)
		if len(nbrs) == 0 {
			origin = graph.NodeID(rng.Intn(n))
			cur = origin
			visited[origin] = true
			continue
		}
		cur = nbrs[rng.Intn(len(nbrs))]
		if !visited[cur] {
			visited[cur] = true
		}
		// Periodically jump to a fresh origin so disconnected components
		// are represented (the "flying back" sampler alone can get stuck
		// in one component).
		if steps%max(1, 10*cfg.TargetNodes/(1+len(visited))) == 0 && rng.Float64() < 0.05 {
			origin = graph.NodeID(rng.Intn(n))
			cur = origin
			visited[origin] = true
		}
	}
	return sortedKeys(visited)
}

// ForestFire samples nodes by forest-fire burning: pick a random seed,
// burn a geometrically-distributed number of its unvisited neighbors,
// recurse from them; reseed when the fire dies out. The burn runs entirely
// on the pinned epoch snapshot.
func ForestFire(s *graph.Snapshot, cfg Config) []graph.NodeID {
	cfg = cfg.withDefaults()
	n := s.NumNodes()
	if cfg.TargetNodes >= n {
		return allNodes(n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	visited := make(map[graph.NodeID]bool, cfg.TargetNodes)
	var queue []graph.NodeID
	for len(visited) < cfg.TargetNodes {
		if len(queue) == 0 {
			// Reseed on an unvisited node only: re-burning from a visited
			// seed would draw another geometric burn from it, skewing the
			// fire's burn schedule toward already-burned regions. An
			// unvisited node always exists here (len(visited) < target < n).
			seed := graph.NodeID(rng.Intn(n))
			if visited[seed] {
				continue
			}
			visited[seed] = true
			queue = append(queue, seed)
		}
		cur := queue[0]
		queue = queue[1:]
		// Geometric number of links to burn: mean p/(1-p).
		burn := 0
		for rng.Float64() < cfg.BurnForward {
			burn++
		}
		nbrs := neighbors(s, cur)
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		for _, nb := range nbrs {
			if burn == 0 || len(visited) >= cfg.TargetNodes {
				break
			}
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
				burn--
			}
		}
	}
	return sortedKeys(visited)
}

// neighbors returns the distinct out- and in-neighbors of v.
func neighbors(s *graph.Snapshot, v graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for _, e := range s.OutEdges(v) {
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	for _, e := range s.InEdges(v) {
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	return out
}

// allNodes returns 0..n-1 (the whole-snapshot sample).
func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func sortedKeys(set map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Restrict wraps a strategy so it proposes only nodes from the sample;
// when the sample holds no k-informative node it falls back to the full
// graph, preserving the session's completeness.
type Restrict struct {
	// Base is the underlying strategy (kR or kS).
	Base interactive.Strategy
	// Sample is the representative node set proposals are drawn from.
	Sample []graph.NodeID
}

// Name returns "sampled(<base>)".
func (r Restrict) Name() string { return "sampled(" + r.Base.Name() + ")" }

// Next scans the sample for the best candidate per the base strategy's
// rule, falling back to the base strategy on the full graph when the
// sample is exhausted.
func (r Restrict) Next(ctx *interactive.Context) (graph.NodeID, bool) {
	switch r.Base.(type) {
	case interactive.KS:
		if nu, ok := r.nextKS(ctx); ok {
			return nu, true
		}
	default:
		if nu, ok := r.nextKR(ctx); ok {
			return nu, true
		}
	}
	return r.Base.Next(ctx)
}

func (r Restrict) unlabeled(ctx *interactive.Context) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range r.Sample {
		if _, labeled := ctx.Sample.Labeled(v); !labeled {
			out = append(out, v)
		}
	}
	return out
}

func (r Restrict) nextKR(ctx *interactive.Context) (graph.NodeID, bool) {
	candidates := r.unlabeled(ctx)
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

func (r Restrict) nextKS(ctx *interactive.Context) (graph.NodeID, bool) {
	best := graph.NodeID(0)
	bestCount := -1
	cov := ctx.Coverage
	for _, nu := range r.unlabeled(ctx) {
		n := scpCount(cov, nu, ctx.K)
		if n == 0 {
			continue
		}
		if bestCount == -1 || n < bestCount || (n == bestCount && nu < best) {
			best, bestCount = nu, n
		}
	}
	return best, bestCount != -1
}

func scpCount(cov *scp.Coverage, nu graph.NodeID, k int) int {
	return cov.CountNonCovered(nu, k)
}

// Session builds an interactive session whose proposals are restricted to
// a sample drawn by the given sampler ("rw" or "ff"). The sample is drawn
// from the pinned epoch snapshot, and the session's proposals and
// re-learning rounds observe it exclusively.
func Session(snap *graph.Snapshot, sampler string, cfg Config, opts interactive.Options) *interactive.Session {
	var sample []graph.NodeID
	switch sampler {
	case "ff":
		sample = ForestFire(snap, cfg)
	default:
		sample = RandomWalk(snap, cfg)
	}
	base := opts.Strategy
	if base == nil {
		base = interactive.KS{}
	}
	opts.Strategy = Restrict{Base: base, Sample: sample}
	return interactive.NewSession(snap, opts)
}

// CoverageOfSample reports what fraction of the goal-selected nodes the
// sample contains — a representativeness diagnostic for experiments.
func CoverageOfSample(sample []graph.NodeID, selected []bool) float64 {
	total, hit := 0, 0
	inSample := make(map[graph.NodeID]bool, len(sample))
	for _, v := range sample {
		inSample[v] = true
	}
	for v, s := range selected {
		if s {
			total++
			if inSample[graph.NodeID(v)] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
