package graph

import (
	"sort"

	"pathquery/internal/alphabet"
	"pathquery/internal/bitset"
)

// This file implements the two-level read-side adjacency behind incremental
// publishing: an immutable base CSR (csr.go) plus a small per-epoch overlay
// holding fully rebuilt (sym, nbr)-sorted rows for only the nodes touched
// since the base was last compacted. Publishing an epoch merges the build
// window's delta edges into the previous epoch's overlay — O(|delta| +
// |overlay|) with no per-row sort — instead of rebuilding both CSR
// directions from scratch; a compaction pass (one linear merge, still no
// sorting) folds the overlay back into a fresh base once it outgrows a
// fraction of the edge set or the delta-chain fence depth.
//
// Read dispatch is a bitset membership test: rows of touched nodes come
// from the overlay, every other node takes the base fast path unchanged.
// Rows are identical to what a from-scratch buildCSR would produce — Edge
// values are pure (Sym, To) data, so equal keys are equal structs and the
// merge order is unobservable — which the overlay property test asserts
// bit-for-bit.

// adj is one direction's two-level adjacency: the immutable base CSR of
// the last compaction plus an optional overlay of rebuilt rows.
type adj struct {
	base csr
	ov   *overlay
}

// overlay holds the rebuilt rows of the nodes touched since the base was
// compacted. Rows are stored CSR-style: edges grouped by node in ascending
// node order, each row sorted (sym, nbr) with equal-symbol runs as
// segments; segOff carries the same one-sentinel contiguity invariant as
// csr.segOff, so a row's segment offsets are one subslice.
type overlay struct {
	touched  bitset.Bits       // nodes owning an overlay row
	nodes    []NodeID          // touched nodes, ascending
	segStart []int32           // len(nodes)+1
	segSym   []alphabet.Symbol // per-segment symbol, ascending within a row
	segOff   []int32           // len(nSegs)+1: segment s covers edges[segOff[s]:segOff[s+1]]
	edges    []Edge            // all overlay rows, grouped by node
	age      int               // publications since the base was compacted
}

// rowSegs is one node's segment view, uniform across base and overlay:
// segment k holds symbol syms[k] over edges[offs[k]:offs[k+1]].
type rowSegs struct {
	syms  []alphabet.Symbol
	offs  []int32
	edges []Edge
}

// rowIndex returns v's row position within the overlay; the caller must
// have checked touched.
func (o *overlay) rowIndex(v NodeID) int {
	lo, hi := 0, len(o.nodes)
	for lo < hi {
		mid := (lo + hi) >> 1
		if o.nodes[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// segs returns v's segment view: the overlay row when v was touched, the
// base row otherwise, and an empty row for nodes created after the base
// (they are either touched or edgeless).
func (a *adj) segs(v NodeID) rowSegs {
	// The touched test is bounds-checked by hand: apply and compact read
	// previous-epoch rows for nodes created after that epoch.
	if o := a.ov; o != nil {
		if w := int(v) >> 6; w < len(o.touched) && o.touched[w]&(1<<(uint(v)&63)) != 0 {
			i := o.rowIndex(v)
			lo, hi := o.segStart[i], o.segStart[i+1]
			return rowSegs{o.segSym[lo:hi], o.segOff[lo : hi+1], o.edges}
		}
	}
	if int(v) < len(a.base.rowStart)-1 {
		return a.base.segs(v)
	}
	return rowSegs{}
}

// segs returns v's base row in the rowSegs shape. Unlike adj.segs it is
// small enough to inline, so a loop over an adjacency without an overlay
// calls it directly.
func (c *csr) segs(v NodeID) rowSegs { return c.segRun(c.segStart[v], c.segStart[v+1]) }

// segRun returns the base segments lo..hi-1 in the rowSegs shape.
func (c *csr) segRun(lo, hi int32) rowSegs {
	return rowSegs{c.segSym[lo:hi], c.segOff[lo : hi+1], c.edges}
}

// runs calls fn with contiguous segment runs, in the rowSegs shape, that
// together cover every row exactly once: the whole base when there is no
// overlay, else the base between touched nodes plus the overlay's rows.
// A sweep over every segment that does not need the row's node (the seed
// sweeps of backward evaluation) walks these instead of calling segs per
// node.
func (a *adj) runs(fn func(rowSegs)) {
	b := &a.base
	nb := int32(len(b.segStart) - 1)
	o := a.ov
	if o == nil {
		fn(b.segRun(0, b.segStart[nb]))
		return
	}
	lo := int32(0)
	for _, v := range o.nodes {
		if v >= nb {
			break // nodes created after the base own no base row
		}
		if hi := b.segStart[v]; lo < hi {
			fn(b.segRun(lo, hi))
		}
		lo = b.segStart[v+1]
	}
	if hi := b.segStart[nb]; lo < hi {
		fn(b.segRun(lo, hi))
	}
	fn(rowSegs{o.segSym, o.segOff, o.edges})
}

// row returns v's edges, sorted by (symbol, neighbor).
func (a *adj) row(v NodeID) []Edge {
	if a.ov == nil && int(v) < len(a.base.rowStart)-1 {
		return a.base.row(v) // compacted fast path
	}
	rs := a.segs(v)
	if len(rs.syms) == 0 {
		return nil
	}
	return rs.edges[rs.offs[0]:rs.offs[len(rs.syms)]]
}

// succ returns the edges of v labeled sym (sorted by neighbor, possibly
// with duplicates), as one contiguous slice.
func (a *adj) succ(v NodeID, sym alphabet.Symbol) []Edge {
	rs := a.segs(v)
	lo, hi := 0, len(rs.syms)
	for lo < hi {
		mid := (lo + hi) >> 1
		if rs.syms[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rs.syms) && rs.syms[lo] == sym {
		return rs.edges[rs.offs[lo]:rs.offs[lo+1]]
	}
	return nil
}

// degree returns the number of edges in v's row.
func (a *adj) degree(v NodeID) int { return len(a.row(v)) }

// overlayEdges returns the overlay size in edges (0 when compacted).
func (a *adj) overlayEdges() int {
	if a.ov == nil {
		return 0
	}
	return len(a.ov.edges)
}

// fullCSR wraps a from-scratch CSR as a compacted adjacency.
func fullCSR(build [][]Edge) adj { return adj{base: buildCSR(build)} }

// deltaRow is one node's share of a publication delta, sorted (sym, nbr).
type deltaRow struct {
	node  NodeID
	edges []Edge
}

// deltaRows regroups the build window's delta edges into per-node sorted
// rows for one direction: out rows keyed by From with Edge{Sym, To}, in
// rows keyed by To with Edge{Sym, From}. O(d log d).
func deltaRows(delta []DeltaEdge, out bool) []deltaRow {
	if len(delta) == 0 {
		return nil
	}
	type keyed struct {
		node NodeID
		e    Edge
	}
	ks := make([]keyed, len(delta))
	for i, de := range delta {
		if out {
			ks[i] = keyed{de.From, Edge{de.Sym, de.To}}
		} else {
			ks[i] = keyed{de.To, Edge{de.Sym, de.From}}
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].node != ks[j].node {
			return ks[i].node < ks[j].node
		}
		if ks[i].e.Sym != ks[j].e.Sym {
			return ks[i].e.Sym < ks[j].e.Sym
		}
		return ks[i].e.To < ks[j].e.To
	})
	var rows []deltaRow
	for i := 0; i < len(ks); {
		j := i
		node := ks[i].node
		edges := make([]Edge, 0, 4)
		for j < len(ks) && ks[j].node == node {
			edges = append(edges, ks[j].e)
			j++
		}
		rows = append(rows, deltaRow{node, edges})
		i = j
	}
	return rows
}

// apply returns the next epoch's adjacency: prev's base unchanged, with a
// fresh overlay holding every previously touched row (copied) plus the
// delta rows merged into their previous contents. nv is the new epoch's
// node count. Cost is O(|overlay| + |delta|), no sorting.
func (prev *adj) apply(rows []deltaRow, nv int) adj {
	var prevNodes []NodeID
	prevEdges, age := 0, 0
	if prev.ov != nil {
		prevNodes = prev.ov.nodes
		prevEdges = len(prev.ov.edges)
		age = prev.ov.age
	}
	deltaEdges := 0
	for _, r := range rows {
		deltaEdges += len(r.edges)
	}
	o := &overlay{
		touched: bitset.Make(nv),
		nodes:   make([]NodeID, 0, len(prevNodes)+len(rows)),
		edges:   make([]Edge, 0, prevEdges+deltaEdges),
		age:     age + 1,
	}
	if prev.ov != nil {
		copy(o.touched, prev.ov.touched)
	}

	emit := func(v NodeID, prevRow, delta []Edge) {
		o.nodes = append(o.nodes, v)
		o.touched.Set(int(v))
		if len(delta) == 0 {
			o.edges = append(o.edges, prevRow...)
			return
		}
		// Linear merge of two (sym, nbr)-sorted runs, duplicates kept.
		i, j := 0, 0
		for i < len(prevRow) && j < len(delta) {
			a, b := prevRow[i], delta[j]
			if a.Sym < b.Sym || (a.Sym == b.Sym && a.To <= b.To) {
				o.edges = append(o.edges, a)
				i++
			} else {
				o.edges = append(o.edges, b)
				j++
			}
		}
		o.edges = append(o.edges, prevRow[i:]...)
		o.edges = append(o.edges, delta[j:]...)
	}

	// Merge the ascending previous-overlay and delta node lists.
	pi, di := 0, 0
	rowEnds := make([]int32, 0, len(prevNodes)+len(rows))
	for pi < len(prevNodes) || di < len(rows) {
		switch {
		case di == len(rows) || (pi < len(prevNodes) && prevNodes[pi] < rows[di].node):
			emit(prevNodes[pi], prev.row(prevNodes[pi]), nil)
			pi++
		case pi == len(prevNodes) || rows[di].node < prevNodes[pi]:
			emit(rows[di].node, prev.row(rows[di].node), rows[di].edges)
			di++
		default: // same node in both
			emit(rows[di].node, prev.row(prevNodes[pi]), rows[di].edges)
			pi++
			di++
		}
		rowEnds = append(rowEnds, int32(len(o.edges)))
	}
	o.buildSegs(rowEnds)
	return adj{base: prev.base, ov: o}
}

// buildSegs derives the per-row segment tables from the grouped, sorted
// edge array in one linear pass; rowEnds[i] is the end offset of row i.
func (o *overlay) buildSegs(rowEnds []int32) {
	o.segStart = make([]int32, len(o.nodes)+1)
	start := int32(0)
	for r := range o.nodes {
		o.segStart[r] = int32(len(o.segSym))
		lo, hi := start, rowEnds[r]
		for i := lo; i < hi; {
			sym := o.edges[i].Sym
			o.segSym = append(o.segSym, sym)
			o.segOff = append(o.segOff, i)
			for i < hi && o.edges[i].Sym == sym {
				i++
			}
		}
		start = hi
	}
	o.segStart[len(o.nodes)] = int32(len(o.segSym))
	o.segOff = append(o.segOff, int32(len(o.edges)))
}

// compact folds the overlay into a fresh base CSR: one linear splice of
// already-sorted rows (overlay row when touched, base row otherwise), no
// per-row sort. total is the direction's edge count.
func (a *adj) compact(nv, total int) adj {
	c := csr{
		edges:    make([]Edge, 0, total),
		rowStart: make([]int32, nv+1),
		segStart: make([]int32, nv+1),
	}
	for v := 0; v < nv; v++ {
		c.rowStart[v] = int32(len(c.edges))
		c.edges = append(c.edges, a.row(NodeID(v))...)
	}
	c.rowStart[nv] = int32(len(c.edges))
	c.buildSegs()
	return adj{base: c}
}
