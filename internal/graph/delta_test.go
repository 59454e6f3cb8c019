package graph_test

// Tests for the epoch-delta layer (delta.go) and the incremental
// regrow evaluators (incremental.go): delta accumulation across
// publishes, span folding over epoch ranges, the chain fence and the
// overflow valve, and — the property the engine's cache maintenance
// rests on — that regrowing a cached fixpoint from a delta span is
// bit-for-bit identical to recomputing it from scratch on the new
// snapshot.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/graph"
	"pathquery/internal/plan"
)

func TestDeltaAccumulation(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("A", "x", "B")
	g.AddEdgeByName("B", "y", "C")
	s1 := g.Snapshot()
	if s1.Delta() != nil {
		t.Fatal("first publication carries a delta; bulk build must be free")
	}
	if _, ok := s1.DeltaSince(s1.Epoch()); !ok {
		t.Fatal("DeltaSince(current epoch) must be the empty span, ok")
	}

	g.AddEdgeByName("C", "x", "D")
	g.AddEdgeByName("A", "z", "C")
	s2 := g.Snapshot()
	d := s2.Delta()
	if d == nil {
		t.Fatal("second publication lost its delta")
	}
	if len(d.Edges) != 2 {
		t.Fatalf("delta has %d edges, want 2", len(d.Edges))
	}
	alpha := g.Alphabet()
	wantMask := plan.SymBit(int(mustSym(t, alpha, "x"))) | plan.SymBit(int(mustSym(t, alpha, "z")))
	if d.SymMask != wantMask {
		t.Fatalf("delta SymMask = %b, want %b", d.SymMask, wantMask)
	}
	if d.PrevNumNodes != 3 || d.NumNodes != 4 {
		t.Fatalf("delta node counts = (%d, %d), want (3, 4)", d.PrevNumNodes, d.NumNodes)
	}

	span, ok := s2.DeltaSince(s1.Epoch())
	if !ok {
		t.Fatal("DeltaSince(previous epoch) broke on an unbroken chain")
	}
	if span.NumEdges != 2 || span.SymMask != wantMask || span.NewNodes != 1 {
		t.Fatalf("span = %+v, want 2 edges, mask %b, 1 new node", span, wantMask)
	}
	if _, ok := s2.DeltaSince(0); ok {
		t.Fatal("DeltaSince(0) crossed the pre-history boundary")
	}
}

func TestDeltaSpanFoldsEpochs(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("A", "a", "B")
	s1 := g.Snapshot()
	labels := []string{"b", "c", "d"}
	for _, l := range labels {
		g.AddEdgeByName("A", l, "B")
		g.Snapshot()
	}
	cur := g.Current()
	span, ok := cur.DeltaSince(s1.Epoch())
	if !ok {
		t.Fatal("fold over three consecutive deltas broke")
	}
	if span.NumEdges != 3 || len(span.Batches) != 3 {
		t.Fatalf("folded span has %d edges in %d batches, want 3 in 3", span.NumEdges, len(span.Batches))
	}
	var want uint64
	for _, l := range labels {
		want |= plan.SymBit(int(mustSym(t, g.Alphabet(), l)))
	}
	if span.SymMask != want {
		t.Fatalf("folded SymMask = %b, want %b", span.SymMask, want)
	}
	// A node-only publication still chains (no hole in the epoch
	// sequence), contributing zero edges and one new node.
	g.AddNode("Z")
	s5 := g.Snapshot()
	span, ok = s5.DeltaSince(cur.Epoch())
	if !ok || span.NumEdges != 0 || span.NewNodes != 1 {
		t.Fatalf("node-only span = %+v ok=%v, want 0 edges, 1 new node", span, ok)
	}
}

func TestDeltaChainFence(t *testing.T) {
	g := graph.New(nil)
	g.AddEdgeByName("A", "x", "B")
	first := g.Snapshot()
	var mid *graph.Snapshot
	for i := 0; i < 80; i++ {
		g.AddEdgeByName("A", "x", "B")
		s := g.Snapshot()
		if i == 70 {
			mid = s
		}
	}
	cur := g.Current()
	if _, ok := cur.DeltaSince(first.Epoch()); ok {
		t.Fatal("span across the chain fence resolved; memory would be unbounded")
	}
	if span, ok := cur.DeltaSince(mid.Epoch()); !ok || span.NumEdges != 9 {
		t.Fatalf("recent span = %+v ok=%v, want 9 edges", span, ok)
	}
}

// TestSymEpochMatchesDeltaFold is the property read-time revalidation
// rests on: for every published snapshot s and earlier epoch e, the
// symbol bits s.SymEpoch reports written after e are exactly the union of
// what the publishes in (e, s] added — which is DeltaSince(e).SymMask
// wherever the chain reaches — over random publishes on more labels than
// SymBit has bits, node-only publishes, chain fences, and publishes whose
// delta overflowed (they count as writing every label).
func TestSymEpochMatchesDeltaFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(nil)
	labels := make([]string, 70)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	node := func() string { return fmt.Sprintf("n%d", rng.Intn(30)) }
	g.AddEdgeByName(node(), labels[0], node())
	snaps := []*graph.Snapshot{g.Snapshot()}
	written := []uint64{^uint64(0)} // the first publication carries no delta
	overflows := 0
	for len(snaps) < 200 {
		var mask uint64
		switch r := rng.Intn(20); {
		case r == 0:
			g.AddNode(fmt.Sprintf("solo%d", len(snaps)))
		case r == 1:
			g.OverflowDelta()
			g.AddEdgeByName(node(), labels[rng.Intn(len(labels))], node())
			mask = ^uint64(0)
			overflows++
		default:
			for i := 1 + rng.Intn(3); i > 0; i-- {
				l := labels[rng.Intn(len(labels))]
				g.AddEdgeByName(node(), l, node())
				mask |= plan.SymBit(int(mustSym(t, g.Alphabet(), l)))
			}
		}
		s := g.Snapshot()
		if s.Epoch() != snaps[len(snaps)-1].Epoch()+1 {
			t.Fatalf("publish %d skipped an epoch", len(snaps))
		}
		snaps = append(snaps, s)
		written = append(written, mask)
	}
	if overflows == 0 {
		t.Fatal("no overflowed publish drawn")
	}
	reached, fenced := 0, 0
	for j, s := range snaps {
		var want uint64 // bits written in (snaps[i], s], built up as i falls
		for i := j - 1; i >= 0; i-- {
			want |= written[i+1]
			e := snaps[i].Epoch()
			var got uint64
			for b := 0; b < 64; b++ {
				if s.SymEpoch(1<<b) > e {
					got |= 1 << b
				}
			}
			if got != want {
				t.Fatalf("epoch %d since %d: SymEpoch bits %b, written %b", s.Epoch(), e, got, want)
			}
			if m := rng.Uint64(); (s.SymEpoch(m) > e) != (m&want != 0) {
				t.Fatalf("epoch %d since %d: SymEpoch(%b) = %d disagrees with written %b", s.Epoch(), e, m, s.SymEpoch(m), want)
			}
			if span, ok := s.DeltaSince(e); ok {
				reached++
				if span.SymMask != got {
					t.Fatalf("epoch %d since %d: DeltaSince mask %b, SymEpoch bits %b", s.Epoch(), e, span.SymMask, got)
				}
			} else {
				fenced++
			}
		}
	}
	if reached == 0 || fenced == 0 {
		t.Fatalf("spans reached %d, fenced %d: both cases must occur", reached, fenced)
	}
}

// mustSym interns nothing: the label must already exist.
func mustSym(t *testing.T, alpha *alphabet.Alphabet, label string) alphabet.Symbol {
	t.Helper()
	sym, ok := alpha.Lookup(label)
	if !ok {
		t.Fatalf("label %q not interned", label)
	}
	return sym
}

// TestRegrowMatchesFromScratch is the soundness property of incremental
// maintenance: fold a random delta span into the cached monadic fixpoint
// of an older epoch and the masks — and the selected nodes — must equal
// a from-scratch evaluation on the new snapshot.
func TestRegrowMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	alpha := alphabet.NewSorted("a", "b", "c")
	ctx := context.Background()
	for iter := 0; iter < 120; iter++ {
		nodes := 2 + rng.Intn(10)
		g := randomGraph(rng, alpha, nodes, rng.Intn(3*nodes))
		p := plan.FromDFA(randomDFA(rng, alpha.Size()))
		if p.Layout != plan.LayoutMasked || p.Empty() {
			continue
		}
		s1 := g.Snapshot()
		oldNodes, oldMasks, err := s1.SelectMonadicMaskedState(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		rng.Intn(nodes) // unused draw, kept so later iterations see the same graphs

		// Mutate: a few random edges, sometimes through brand-new nodes.
		grown := nodes
		for i := rng.Intn(3); i > 0; i-- {
			g.AddNode(string(rune('α' + iter*4 + i)))
			grown++
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			f := graph.NodeID(rng.Intn(grown))
			to := graph.NodeID(rng.Intn(grown))
			g.AddEdge(f, alphabet.Symbol(rng.Intn(alpha.Size())), to)
		}
		s2 := g.Snapshot()
		span, ok := s2.DeltaSince(s1.Epoch())
		if !ok {
			t.Fatalf("iter %d: single-step span broke", iter)
		}

		masks, newly, ok := s2.RegrowMonadicMasked(p, oldMasks, &span, 1<<30)
		if !ok {
			t.Fatalf("iter %d: monadic regrow exceeded an unbounded budget", iter)
		}
		wantNodes, wantMasks, err := s2.SelectMonadicMaskedState(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantMasks {
			if masks[v] != wantMasks[v] {
				t.Fatalf("iter %d: monadic mask[%d] = %b, from-scratch %b", iter, v, masks[v], wantMasks[v])
			}
		}
		checkMerged(t, iter, "monadic", oldNodes, newly, wantNodes)
	}
}

// checkMerged verifies old ∪ newly == want as sorted sets.
func checkMerged(t *testing.T, iter int, kind string, old, newly, want []graph.NodeID) {
	t.Helper()
	seen := make(map[graph.NodeID]bool, len(old)+len(newly))
	for _, v := range old {
		seen[v] = true
	}
	for _, v := range newly {
		if seen[v] {
			t.Fatalf("iter %d %s: regrow re-reported already-selected node %d", iter, kind, v)
		}
		seen[v] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("iter %d %s: merged %d nodes, from-scratch %d", iter, kind, len(seen), len(want))
	}
	for _, v := range want {
		if !seen[v] {
			t.Fatalf("iter %d %s: from-scratch selects %d, merged set misses it", iter, kind, v)
		}
	}
}
