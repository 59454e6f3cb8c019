package graph

import (
	"sort"
	"time"

	"pathquery/internal/alphabet"
	"pathquery/internal/bitset"
)

// This file implements the read-side representation of a Graph: a
// compressed sparse row (CSR) adjacency grouped by symbol, published as
// immutable epoch Snapshots, and the scratch pools shared by the hot
// product searches.
//
// Epoch contract: one writer mutates (AddNode/AddEdge) the build-side
// adjacency, which never touches a published Snapshot, and publishes:
// Snapshot() builds a new immutable CSR epoch and installs it with an
// atomic pointer swap; Current() returns the latest published epoch
// without rebuilding. Any number of goroutines read Snapshots; they never
// block the writer and never observe its mutations — they keep serving
// their epoch until they pick up a newer one. The serving engine
// (internal/engine) serializes writers behind one lock.

// csr is a symbol-indexed compressed-sparse-row adjacency. Edges are
// grouped by node and sorted by (symbol, neighbor); within a node, runs of
// equal symbols form segments so the (node, symbol) successor list is one
// contiguous slice.
type csr struct {
	edges    []Edge            // all edges, grouped by node, sorted (sym, nbr)
	rowStart []int32           // len nv+1: node v's edges are edges[rowStart[v]:rowStart[v+1]]
	segStart []int32           // len nv+1: node v's segments are segStart[v]..segStart[v+1]
	segSym   []alphabet.Symbol // per-segment symbol, ascending within a node
	segOff   []int32           // len nSegs+1: segment s covers edges[segOff[s]:segOff[s+1]]
}

func buildCSR(adj [][]Edge) csr {
	nv := len(adj)
	total := 0
	for _, es := range adj {
		total += len(es)
	}
	c := csr{
		edges:    make([]Edge, 0, total),
		rowStart: make([]int32, nv+1),
		segStart: make([]int32, nv+1),
	}
	for v, es := range adj {
		c.rowStart[v] = int32(len(c.edges))
		c.edges = append(c.edges, es...)
		row := c.edges[c.rowStart[v]:]
		sort.Slice(row, func(i, j int) bool {
			if row[i].Sym != row[j].Sym {
				return row[i].Sym < row[j].Sym
			}
			return row[i].To < row[j].To
		})
	}
	c.rowStart[nv] = int32(len(c.edges))
	c.buildSegs()
	return c
}

// buildSegs derives the segment tables from the grouped, sorted edge
// array; rows must already be in place behind rowStart.
func (c *csr) buildSegs() {
	nv := len(c.rowStart) - 1
	for v := 0; v < nv; v++ {
		c.segStart[v] = int32(len(c.segSym))
		lo, hi := c.rowStart[v], c.rowStart[v+1]
		for i := lo; i < hi; {
			sym := c.edges[i].Sym
			c.segSym = append(c.segSym, sym)
			c.segOff = append(c.segOff, i)
			for i < hi && c.edges[i].Sym == sym {
				i++
			}
		}
	}
	c.segStart[nv] = int32(len(c.segSym))
	c.segOff = append(c.segOff, int32(len(c.edges)))
}

// row returns node v's edges, sorted by (symbol, neighbor).
func (c *csr) row(v NodeID) []Edge {
	return c.edges[c.rowStart[v]:c.rowStart[v+1]]
}

// succ returns the edges of v labeled sym (sorted by neighbor, possibly
// with duplicates), as one contiguous slice.
func (c *csr) succ(v NodeID, sym alphabet.Symbol) []Edge {
	lo, hi := c.segStart[v], c.segStart[v+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if c.segSym[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.segStart[v+1] && c.segSym[lo] == sym {
		return c.edges[c.segOff[lo]:c.segOff[lo+1]]
	}
	return nil
}

// Snapshot is an immutable read-side view of a Graph at one publication
// point: both CSR adjacency directions, the node-name table prefix, and
// the alphabet size as of the publish. Snapshots are safe for unlimited
// concurrent readers and stay valid (and consistent) while the owning
// Graph keeps mutating and publishing newer epochs. Every read of a graph
// runs on a Snapshot; the serving engine pins one per request so the
// request observes exactly one epoch.
type Snapshot struct {
	g     *Graph // scratch pools + alphabet only; never the mutable build side
	epoch uint64
	nv    int
	ne    int
	nsym  int
	names []string // immutable prefix of the name table at publish time
	out   adj
	in    adj
	delta *Delta // what this publication added; nil at chain starts (delta.go)
	// symEpoch[b] is the last epoch that added an edge whose label maps
	// to plan.SymBit bit b; a publication without a delta sets every
	// entry (delta.go, SymEpoch).
	symEpoch [64]uint64
	// inSymCount[sym] is the number of edges labeled sym (counted on the
	// in-side CSR): the direction-optimizing evaluators estimate the cost
	// of seeding a backward pass from it without touching the edges.
	inSymCount []int32
}

// OutDegree returns the number of out-edges of v in this epoch.
func (s *Snapshot) OutDegree(v NodeID) int { return s.out.degree(v) }

// InDegree returns the number of in-edges of v in this epoch.
func (s *Snapshot) InDegree(v NodeID) int { return s.in.degree(v) }

// Epoch returns the snapshot's epoch number. Epochs start at 1 and
// increase by 1 per publication.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumNodes returns the number of nodes in this epoch.
func (s *Snapshot) NumNodes() int { return s.nv }

// NumEdges returns the number of edges in this epoch.
func (s *Snapshot) NumEdges() int { return s.ne }

// NodeName returns the name of id as of this epoch, or "" when id is not
// a node of this epoch — an id from another graph, or one created after
// the epoch was published. Serving paths resolve ids against whatever
// epoch a cached result was computed on, so an out-of-range id must be a
// soft miss here, never a panic.
func (s *Snapshot) NodeName(id NodeID) string {
	if id < 0 || int(id) >= len(s.names) {
		return ""
	}
	return s.names[id]
}

// Alphabet returns the (concurrency-safe) alphabet shared with the graph.
func (s *Snapshot) Alphabet() *alphabet.Alphabet { return s.g.alpha }

// Snapshot publishes a new immutable epoch reflecting every mutation so
// far and returns it; if nothing changed since the last publication the
// current epoch is returned. Like mutation, publication is a writer-side
// operation: it must not run concurrently with other mutations.
func (g *Graph) Snapshot() *Snapshot {
	s, _ := g.SnapshotStats()
	return s
}

// PublishStats describes how a publication was performed, for the write
// path's per-stage observability.
type PublishStats struct {
	// Incremental reports the overlay path was taken (vs a from-scratch
	// buildCSR rebuild: first epoch or delta-accumulator overflow).
	Incremental bool
	// Compacted reports the publication folded the overlay into a fresh
	// base CSR.
	Compacted bool
	// OverlayEdges is the total overlay size (both directions) after the
	// publication; 0 when compacted.
	OverlayEdges int
	// Build is the time spent constructing the new epoch's adjacency
	// (overlay merge or full rebuild); Swap the time sealing the delta
	// chain and installing the snapshot pointer.
	Build, Swap time.Duration
}

// SnapshotStats is Snapshot returning how the publication was performed;
// a clean build side returns the current epoch with zero stats.
func (g *Graph) SnapshotStats() (*Snapshot, PublishStats) {
	if s := g.cur.Load(); s != nil && !g.dirty.Load() {
		return s, PublishStats{}
	}
	return g.publishEx()
}

// Current returns the latest published snapshot without publishing
// pending mutations — the serving read path: loading the epoch pointer is
// the only synchronization, so readers never block writers. Before the
// first publication it publishes epoch 1.
func (g *Graph) Current() *Snapshot {
	if s := g.cur.Load(); s != nil {
		return s
	}
	return g.Snapshot()
}

// compactOverlayDivisor triggers compaction once the larger overlay
// exceeds |E| / compactOverlayDivisor edges; the age trigger aligns with
// the delta-chain fence (maxDeltaChain).
const compactOverlayDivisor = 8

func (g *Graph) publishEx() (*Snapshot, PublishStats) {
	g.publishMu.Lock()
	defer g.publishMu.Unlock()
	if s := g.cur.Load(); s != nil && !g.dirty.Load() {
		return s, PublishStats{}
	}
	// Clear dirty before reading the build side: a mutation racing with
	// this build (only possible through engine misuse) re-marks it so the
	// next publication rebuilds.
	g.dirty.Store(false)
	prev := g.cur.Load()
	nv := len(g.nodeNames)
	s := &Snapshot{
		g:     g,
		epoch: g.epoch.Add(1),
		nv:    nv,
		ne:    g.numEdges,
		nsym:  g.alpha.Size(),
		names: g.nodeNames[:nv:nv],
	}
	var st PublishStats
	buildStart := time.Now()
	if prev == nil || g.deltaOverflow {
		// First epoch or delta overflow: the only from-scratch rebuilds.
		s.out = fullCSR(g.out)
		s.in = fullCSR(g.in)
		s.inSymCount = make([]int32, s.nsym)
		for si := range s.in.base.segSym {
			if sym := int(s.in.base.segSym[si]); sym < len(s.inSymCount) {
				s.inSymCount[sym] += s.in.base.segOff[si+1] - s.in.base.segOff[si]
			}
		}
	} else {
		st.Incremental = true
		delta := g.deltaEdges
		s.out = prev.out.apply(deltaRows(delta, true), nv)
		s.in = prev.in.apply(deltaRows(delta, false), nv)
		ovMax := s.out.overlayEdges()
		if ie := s.in.overlayEdges(); ie > ovMax {
			ovMax = ie
		}
		if s.out.ov.age >= maxDeltaChain || ovMax*compactOverlayDivisor > g.numEdges {
			s.out = s.out.compact(nv, g.numEdges)
			s.in = s.in.compact(nv, g.numEdges)
			st.Compacted = true
		}
		st.OverlayEdges = s.out.overlayEdges() + s.in.overlayEdges()
		s.inSymCount = make([]int32, s.nsym)
		copy(s.inSymCount, prev.inSymCount)
		for _, de := range delta {
			if int(de.Sym) < len(s.inSymCount) {
				s.inSymCount[de.Sym]++
			}
		}
	}
	swapStart := time.Now()
	st.Build = swapStart.Sub(buildStart)
	g.sealDelta(s, prev)
	g.cur.Store(s)
	st.Swap = time.Since(swapStart)
	return s, st
}

// stepScratch is pooled per-call state for Step and symbolsOf: dedup
// bitsets over the node and symbol universes. Pool discipline: all bits
// zero while in the pool (both users clear the words they touched while
// emitting output).
type stepScratch struct {
	nodes bitset.Bits
	syms  bitset.Bits
	// StepAll per-symbol edge buckets and the symbols present, reused
	// across calls.
	buckets [][]NodeID
	present []alphabet.Symbol
}

func (s *Snapshot) getStep() *stepScratch {
	sc, _ := s.g.stepPool.Get().(*stepScratch)
	if sc == nil {
		sc = &stepScratch{}
	}
	sc.nodes = sc.nodes.Grow(s.nv)
	sc.syms = sc.syms.Grow(s.nsym)
	return sc
}

func (s *Snapshot) putStep(sc *stepScratch) { s.g.stepPool.Put(sc) }

// productScratch is pooled per-call state for the |V|·|Q| product
// searches: the visited bitset, the DFS/BFS work stack and, for the
// early-exit searches, the list of set bit indices so release clears in
// O(visited) instead of O(|V|·|Q|). Pool discipline: bits all zero while
// in the pool.
type productScratch struct {
	bits    bitset.Bits
	stack   []uint64
	next    []uint64 // second frontier for level-synchronous BFS
	touched []uint64 // set-bit indices, for sparse clearing
	// Second visited set + frontiers for the direction-optimizing
	// bidirectional searches (forward side uses bits/stack/next, backward
	// side bits2/stack2/next2). Same pool discipline: bits2 all zero while
	// pooled, set bits recorded in touched2.
	bits2    bitset.Bits
	stack2   []uint64
	next2    []uint64
	touched2 []uint64
	// Per-node pending-state masks of the masked propagation kernel
	// (maskKernel); all-zero while pooled.
	pending bitset.Bits
}

func (s *Snapshot) getProduct(bits int) *productScratch {
	sc, _ := s.g.prodPool.Get().(*productScratch)
	if sc == nil {
		sc = &productScratch{}
	}
	sc.bits = sc.bits.Grow(bits)
	return sc
}

// getProduct2 is getProduct with the second (backward-side) visited set
// grown too, for the bidirectional searches.
func (s *Snapshot) getProduct2(bits int) *productScratch {
	sc := s.getProduct(bits)
	sc.bits2 = sc.bits2.Grow(bits)
	return sc
}

// putProductSparse releases scratch whose set bits are all recorded in
// touched.
func (s *Snapshot) putProductSparse(sc *productScratch) {
	for _, i := range sc.touched {
		sc.bits.Clear(int(i))
	}
	s.putProductClean(sc)
}

// putProduct2Sparse releases bidirectional scratch: both visited sets are
// cleared through their touched lists.
func (s *Snapshot) putProduct2Sparse(sc *productScratch) {
	for _, i := range sc.touched2 {
		sc.bits2.Clear(int(i))
	}
	sc.touched2 = sc.touched2[:0]
	sc.stack2 = sc.stack2[:0]
	sc.next2 = sc.next2[:0]
	s.putProductSparse(sc)
}

// putProductDense releases scratch after a search that may have marked a
// large fraction of the product space: clear the used prefix wholesale.
func (s *Snapshot) putProductDense(sc *productScratch, bits int) {
	clear(sc.bits[:bitset.WordsFor(bits)])
	s.putProductClean(sc)
}

func (s *Snapshot) putProductClean(sc *productScratch) {
	sc.stack = sc.stack[:0]
	sc.next = sc.next[:0]
	sc.touched = sc.touched[:0]
	s.g.prodPool.Put(sc)
}
