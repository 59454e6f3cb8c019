// Package graph implements the graph-database substrate of the paper
// (Section 2): a finite, directed, edge-labeled graph G = (V, E) with
// E ⊆ V × Σ × V, plus the path-language machinery every other component
// builds on. The language paths_G(ν) — all words matching a node sequence
// starting at ν — is never materialized: it is the prefix-closed language
// of the graph viewed as an NFA whose states are all accepting, and every
// operation on it (membership, query products, inclusion) is computed as a
// product construction over the adjacency.
//
// Reads run against immutable epoch Snapshots of a compressed-sparse-row
// view (see csr.go and DESIGN.md): adjacency flattened per direction into
// one flat edge array grouped by node and symbol, so the hot loops are
// contiguous range scans. Mutations go to a build-side delta and become
// visible to concurrent readers only when a new epoch is published.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pathquery/internal/alphabet"
	"pathquery/internal/bitset"
	"pathquery/internal/words"
)

// NodeID identifies a node; ids are dense 0..NumNodes-1.
type NodeID = int32

// Edge is an outgoing or incoming labeled edge.
type Edge struct {
	Sym alphabet.Symbol
	To  NodeID // neighbor: head for out-edges, tail for in-edges
}

// Graph is the writer side of a finite directed edge-labeled graph over an
// interned alphabet: it owns the build-side adjacency, the node-name table
// and epoch publication. Every read of the adjacency goes through a
// published, immutable epoch Snapshot in symbol-indexed CSR form (csr.go),
// which keeps canonical-order path enumeration a plain BFS taking edges in
// (symbol, neighbor) order.
//
// Concurrency: one writer mutates and publishes epochs (Snapshot), while
// any number of goroutines read the immutable Snapshots it published.
type Graph struct {
	alpha     *alphabet.Alphabet
	nodeNames []string
	// nodeIDs is written only by AddNode, under namesMu, so NodeByName
	// may resolve names while a writer adds nodes.
	namesMu  sync.RWMutex
	nodeIDs  map[string]NodeID
	out      [][]Edge // build-side adjacency; reads use published snapshots
	in       [][]Edge
	numEdges int

	// Build-side epoch-delta accumulator (delta.go): the edges added
	// since the last publication and their hashed symbol mask, frozen
	// into an immutable Delta at the next publish.
	deltaEdges    []DeltaEdge
	deltaSyms     uint64
	deltaOverflow bool

	dirty     atomic.Bool // build side differs from the published snapshot
	publishMu sync.Mutex
	cur       atomic.Pointer[Snapshot]
	epoch     atomic.Uint64

	stepPool sync.Pool // *stepScratch
	prodPool sync.Pool // *productScratch
}

// New returns an empty graph over alpha. If alpha is nil a fresh alphabet
// is created.
func New(alpha *alphabet.Alphabet) *Graph {
	if alpha == nil {
		alpha = alphabet.New()
	}
	return &Graph{alpha: alpha, nodeIDs: make(map[string]NodeID)}
}

// Alphabet returns the graph's alphabet.
func (g *Graph) Alphabet() *alphabet.Alphabet { return g.alpha }

// NumNodes returns the number of nodes on the build side.
func (g *Graph) NumNodes() int { return len(g.nodeNames) }

// NumEdges returns the number of edges on the build side.
func (g *Graph) NumEdges() int { return g.numEdges }

// Epoch returns the number of the most recently published epoch (0 before
// the first publication).
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// SetEpochBase re-anchors the epoch counter so the next publication is
// numbered base+1. Recovery-time only: internal/store rebuilds a graph
// from a checkpoint plus WAL replay and re-anchors it so the recovered
// publication carries the same epoch number the pre-crash engine last
// served. It must be called before the first publication; calling it on
// a graph that has already published would violate the contract that
// epochs only ever increase.
func (g *Graph) SetEpochBase(base uint64) {
	if g.cur.Load() != nil {
		panic("graph: SetEpochBase after an epoch was published")
	}
	g.epoch.Store(base)
}

// AddNode adds a node named name and returns its id; adding an existing
// name returns the existing id. The node joins the published read view at
// the next Snapshot().
func (g *Graph) AddNode(name string) NodeID {
	// Only the single writer inserts, so its own lookup needs no lock.
	if id, ok := g.nodeIDs[name]; ok {
		return id
	}
	id := NodeID(len(g.nodeNames))
	g.nodeNames = append(g.nodeNames, name)
	g.namesMu.Lock()
	g.nodeIDs[name] = id
	g.namesMu.Unlock()
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.dirty.Store(true)
	return id
}

// AddEdge adds the edge (from, sym, to) to the build side. Duplicate edges
// are kept (the graph is a set in the paper; duplicates do not change any
// semantics and generators avoid them). The edge joins the published read
// view at the next Snapshot().
func (g *Graph) AddEdge(from NodeID, sym alphabet.Symbol, to NodeID) {
	g.out[from] = append(g.out[from], Edge{sym, to})
	g.in[to] = append(g.in[to], Edge{sym, from})
	g.numEdges++
	g.recordDeltaEdge(from, sym, to)
	g.dirty.Store(true)
}

// AddEdgeByName interns label and adds an edge between named nodes,
// creating them as needed.
func (g *Graph) AddEdgeByName(from, label, to string) {
	g.AddEdge(g.AddNode(from), g.alpha.Intern(label), g.AddNode(to))
}

// NodeName returns the name of id, or "" for an id outside the build
// side's node range (same soft-miss contract as Snapshot.NodeName).
func (g *Graph) NodeName(id NodeID) string {
	if id < 0 || int(id) >= len(g.nodeNames) {
		return ""
	}
	return g.nodeNames[id]
}

// NodeByName returns the id of the named node. It is safe to call while
// the writer adds nodes; the id may belong to a node no published epoch
// serves yet, so callers holding a Snapshot check it against NumNodes.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	g.namesMu.RLock()
	id, ok := g.nodeIDs[name]
	g.namesMu.RUnlock()
	return id, ok
}

// Nodes returns all node ids.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, g.NumNodes())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// OutEdges returns the out-edges of v sorted by (symbol, neighbor). The
// returned slice must not be modified.
func (s *Snapshot) OutEdges(v NodeID) []Edge { return s.out.row(v) }

// InEdges returns the sorted in-edges of v (Edge.To is the tail node).
// The returned slice must not be modified.
func (s *Snapshot) InEdges(v NodeID) []Edge { return s.in.row(v) }

// Step returns the sorted, deduplicated set of a-successors of the sorted
// node set set. Successor segments are contiguous in the CSR, and dedup
// uses a pooled bitset emitted in ascending order — no per-call map, no
// per-call sort.
func (s *Snapshot) Step(set []NodeID, sym alphabet.Symbol) []NodeID {
	sc := s.getStep()
	defer s.putStep(sc)
	mk := bitset.NewMarker(sc.nodes)
	for _, v := range set {
		for _, e := range s.out.succ(v, sym) {
			mk.TrySet(int(e.To))
		}
	}
	if mk.Count() == 0 {
		return nil
	}
	out := make([]NodeID, 0, mk.Count())
	mk.Drain(func(i int) { out = append(out, NodeID(i)) })
	return out
}

// Matches reports whether w ∈ paths_G(ν): some node sequence starting at ν
// is matched by w. The empty word matches everywhere.
func (s *Snapshot) Matches(nu NodeID, w words.Word) bool {
	cur := []NodeID{nu}
	for _, sym := range w {
		cur = s.Step(cur, sym)
		if len(cur) == 0 {
			return false
		}
	}
	return true
}

// MatchesAny reports whether w ∈ paths_G(X) for the node set X. The empty
// set covers nothing: paths_G(∅) = ∅.
func (s *Snapshot) MatchesAny(set []NodeID, w words.Word) bool {
	cur := append([]NodeID(nil), set...)
	for _, sym := range w {
		cur = s.Step(cur, sym)
		if len(cur) == 0 {
			return false
		}
	}
	return len(cur) > 0
}

// HasCycleFrom reports whether a cycle is reachable from ν, i.e. whether
// paths_G(ν) is infinite (Section 2). The DFS keeps an explicit stack so
// deep synthetic graphs cannot overflow the goroutine stack.
func (s *Snapshot) HasCycleFrom(nu NodeID) bool {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int8, s.nv)
	type frame struct {
		v  NodeID
		ei int32 // next out-edge index within the node's CSR row
	}
	stack := []frame{{nu, 0}}
	state[nu] = inStack
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		row := s.out.row(f.v)
		if int(f.ei) < len(row) {
			to := row[f.ei].To
			f.ei++
			switch state[to] {
			case inStack:
				return true
			case unvisited:
				state[to] = inStack
				stack = append(stack, frame{to, 0})
			}
			continue
		}
		state[f.v] = done
		stack = stack[:len(stack)-1]
	}
	return false
}

// PathsUpTo enumerates paths_G(ν) ∩ Σ^{≤maxLen} in canonical order,
// stopping after limit words (limit ≤ 0 means no limit). Distinct words
// only: several node sequences matching the same word yield one entry.
func (s *Snapshot) PathsUpTo(nu NodeID, maxLen, limit int) []words.Word {
	type state struct {
		set  []NodeID
		word words.Word
	}
	var out []words.Word
	level := []state{{[]NodeID{nu}, words.Epsilon}}
	for l := 0; l <= maxLen; l++ {
		var next []state
		for _, cur := range level {
			out = append(out, cur.word)
			if limit > 0 && len(out) >= limit {
				return out
			}
			if l == maxLen {
				continue
			}
			for _, sym := range s.SymbolsOf(cur.set) {
				ns := s.Step(cur.set, sym)
				if len(ns) > 0 {
					next = append(next, state{ns, words.Append(cur.word, sym)})
				}
			}
		}
		level = next
	}
	return out
}

// StepAll visits, for every symbol with at least one successor from the
// node set, the sorted deduplicated stepped set — one pass over the set's
// CSR segments instead of one Step per symbol. Visit order is unspecified
// but deterministic. The succ slice is freshly allocated per symbol and
// owned by the callback. This is the bulk transition primitive behind the
// lazily-determinized Coverage index in internal/scp.
func (s *Snapshot) StepAll(set []NodeID, fn func(sym alphabet.Symbol, succ []NodeID)) {
	sc := s.getStep()
	defer s.putStep(sc)
	nsym := s.nsym
	if cap(sc.buckets) < nsym {
		sc.buckets = make([][]NodeID, nsym)
	}
	buckets := sc.buckets[:nsym]
	present := sc.present[:0]
	symMarks := sc.syms
	out, base := &s.out, &s.out.base
	compacted := out.ov == nil
	for _, v := range set {
		var rs rowSegs
		if compacted {
			rs = base.segs(v) // inlined, as in CoversAnyMerger
		} else {
			rs = out.segs(v)
		}
		for k := range rs.syms {
			sym := rs.syms[k]
			if symMarks.TrySet(int(sym)) {
				present = append(present, sym)
				buckets[sym] = buckets[sym][:0]
			}
			b := buckets[sym]
			for _, e := range rs.edges[rs.offs[k]:rs.offs[k+1]] {
				b = append(b, e.To)
			}
			buckets[sym] = b
		}
	}
	sc.present = present
	for _, sym := range present {
		symMarks.Clear(int(sym))
		mk := bitset.NewMarker(sc.nodes)
		for _, to := range buckets[sym] {
			mk.TrySet(int(to))
		}
		succ := make([]NodeID, 0, mk.Count())
		mk.Drain(func(i int) { succ = append(succ, NodeID(i)) })
		fn(sym, succ)
	}
}

// SymbolsOf returns the sorted distinct symbols with an out-edge from set.
// Per-node symbols are one CSR segment scan; dedup is a pooled bitset over
// the alphabet, emitted in ascending (= sorted) symbol order.
func (s *Snapshot) SymbolsOf(set []NodeID) []alphabet.Symbol {
	sc := s.getStep()
	defer s.putStep(sc)
	mk := bitset.NewMarker(sc.syms)
	for _, v := range set {
		for _, sym := range s.out.segs(v).syms {
			mk.TrySet(int(sym))
		}
	}
	if mk.Count() == 0 {
		return nil
	}
	out := make([]alphabet.Symbol, 0, mk.Count())
	mk.Drain(func(i int) { out = append(out, alphabet.Symbol(i)) })
	return out
}

// Neighborhood returns the set of nodes within the given undirected radius
// of ν, including ν — the "zoom out on its neighborhood" of the interactive
// scenario (step 4 of Figure 9, where the paper suggests radius k).
func (s *Snapshot) Neighborhood(nu NodeID, radius int) []NodeID {
	dist := map[NodeID]int{nu: 0}
	queue := []NodeID{nu}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == radius {
			continue
		}
		for _, e := range s.out.row(v) {
			if _, ok := dist[e.To]; !ok {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
		for _, e := range s.in.row(v) {
			if _, ok := dist[e.To]; !ok {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	out := make([]NodeID, 0, len(dist))
	for v := range dist {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subgraph returns the induced subgraph on keep, with the same node names
// and alphabet. Node ids are renumbered.
func (s *Snapshot) Subgraph(keep []NodeID) *Graph {
	sub := New(s.g.alpha)
	inKeep := make(map[NodeID]bool, len(keep))
	for _, v := range keep {
		inKeep[v] = true
		sub.AddNode(s.NodeName(v))
	}
	for _, v := range keep {
		for _, e := range s.out.row(v) {
			if inKeep[e.To] {
				from, _ := sub.NodeByName(s.NodeName(v))
				to, _ := sub.NodeByName(s.NodeName(e.To))
				sub.AddEdge(from, e.Sym, to)
			}
		}
	}
	return sub
}

// String renders a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{%d nodes, %d edges, %d labels}",
		g.NumNodes(), g.NumEdges(), g.alpha.Size())
}
