package scp_test

import (
	"math/rand"
	"slices"
	"testing"

	"pathquery/internal/datasets"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
	"pathquery/internal/scp"
	"pathquery/internal/words"
)

func node(t *testing.T, g *graph.Graph, name string) graph.NodeID {
	t.Helper()
	id, ok := g.NodeByName(name)
	if !ok {
		t.Fatalf("missing node %q", name)
	}
	return id
}

func TestSmallestPaperSCPs(t *testing.T) {
	// Section 3.2: "we obtain the SCPs abc and c for ν1 and ν3".
	g, s := paperfix.G0()
	cov := scp.NewCoverage(g.Snapshot(), s.Neg)
	w1, ok, _ := cov.Smallest(node(t, g, "v1"), 3)
	if !ok || words.String(w1, g.Alphabet()) != "a·b·c" {
		t.Fatalf("SCP(v1) = %v, want a·b·c", w1)
	}
	w3, ok, _ := cov.Smallest(node(t, g, "v3"), 3)
	if !ok || words.String(w3, g.Alphabet()) != "c" {
		t.Fatalf("SCP(v3) = %v, want c", w3)
	}
}

func TestSmallestRespectsBound(t *testing.T) {
	g, s := paperfix.G0()
	if _, ok, _ := scp.NewCoverage(g.Snapshot(), s.Neg).Smallest(node(t, g, "v1"), 2); ok {
		t.Fatal("SCP(v1) has length 3; k=2 must fail")
	}
}

func TestSmallestNoNegatives(t *testing.T) {
	// With no negatives, ε escapes immediately.
	g, _ := paperfix.G0()
	w, ok, _ := scp.NewCoverage(g.Snapshot(), nil).Smallest(node(t, g, "v5"), 3)
	if !ok || len(w) != 0 {
		t.Fatalf("SCP with no negatives = %v, want ε", w)
	}
}

func TestSmallestInconsistentNode(t *testing.T) {
	// Figure 5: the positive's paths are all covered; no SCP at any k,
	// and none unbounded (k < 0): paths(ν) ⊆ paths(S−).
	g, s := paperfix.Figure5()
	for _, k := range []int{1, 3, 6, 10, -1} {
		if _, ok, _ := scp.NewCoverage(g.Snapshot(), s.Neg).Smallest(s.Pos[0], k); ok {
			t.Fatalf("k=%d: found an SCP for a fully covered node", k)
		}
	}
}

func TestIsKInformative(t *testing.T) {
	g, s := paperfix.G0()
	snap := g.Snapshot()
	if !scp.NewCoverage(snap, s.Neg).IsKInformative(node(t, g, "v3"), 2) {
		t.Fatal("v3 is 2-informative (path c)")
	}
	if scp.NewCoverage(snap, s.Neg).IsKInformative(node(t, g, "v1"), 2) {
		t.Fatal("v1 is not 2-informative (SCP is abc)")
	}
	if !scp.NewCoverage(snap, s.Neg).IsKInformative(node(t, g, "v1"), 3) {
		t.Fatal("v1 is 3-informative")
	}
}

func TestCountNonCoveredMatchesEnumeration(t *testing.T) {
	// Cross-check the DP against brute-force path enumeration on G0.
	g, s := paperfix.G0()
	snap := g.Snapshot()
	cov := scp.NewCoverage(snap, s.Neg)
	for v := 0; v < g.NumNodes(); v++ {
		nu := graph.NodeID(v)
		for _, k := range []int{1, 2, 3, 4} {
			brute := 0
			for _, w := range snap.PathsUpTo(nu, k, 0) {
				if !snap.MatchesAny(s.Neg, w) {
					brute++
				}
			}
			if got := cov.CountNonCovered(nu, k); got != brute {
				t.Fatalf("node %s k=%d: DP=%d brute=%d", g.NodeName(nu), k, got, brute)
			}
		}
	}
}

func TestCountNonCoveredNoNegatives(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	// With no negatives every bounded path counts, ε included.
	nu := node(t, g, "v5")
	got := scp.NewCoverage(snap, nil).CountNonCovered(nu, 2)
	want := len(snap.PathsUpTo(nu, 2, 0)) // ε, a, b
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestCoverageIsSharedAcrossNodes(t *testing.T) {
	// One Coverage must serve many nodes and memoize subset transitions.
	g, s := paperfix.G0()
	snap := g.Snapshot()
	cov := scp.NewCoverage(snap, s.Neg)
	for v := 0; v < g.NumNodes(); v++ {
		cov.Smallest(graph.NodeID(v), 3)
	}
	if cov.NumStates() < 2 {
		t.Fatalf("coverage materialized %d states", cov.NumStates())
	}
	// Determinism: a fresh coverage yields the same SCPs.
	fresh := scp.NewCoverage(snap, s.Neg)
	for v := 0; v < g.NumNodes(); v++ {
		w1, ok1, _ := cov.Smallest(graph.NodeID(v), 3)
		w2, ok2, _ := fresh.Smallest(graph.NodeID(v), 3)
		if ok1 != ok2 || (ok1 && !words.Equal(w1, w2)) {
			t.Fatalf("node %d: SCP differs between coverage instances", v)
		}
	}

	// The learner's k schedule shares one coverage across its rounds: it
	// searches every node at k = 1, 2, …, 5 in increasing order, and each
	// answer must equal a fresh coverage's at that k.
	syn := datasets.Synthetic(200, 7).Snapshot()
	var synNeg []graph.NodeID
	for _, v := range rand.New(rand.NewSource(5)).Perm(syn.NumNodes())[:20] {
		synNeg = append(synNeg, graph.NodeID(v))
	}
	for _, in := range []struct {
		snap *graph.Snapshot
		neg  []graph.NodeID
	}{{snap, s.Neg}, {syn, synNeg}} {
		shared := scp.NewCoverage(in.snap, in.neg)
		for k := 1; k <= 5; k++ {
			fresh := scp.NewCoverage(in.snap, in.neg)
			for v := 0; v < in.snap.NumNodes(); v++ {
				w1, ok1, _ := shared.Smallest(graph.NodeID(v), k)
				w2, ok2, _ := fresh.Smallest(graph.NodeID(v), k)
				if ok1 != ok2 || (ok1 && !words.Equal(w1, w2)) {
					t.Fatalf("%d nodes, k=%d, node %d: shared coverage answers %v/%v, fresh %v/%v",
						in.snap.NumNodes(), k, v, w1, ok1, w2, ok2)
				}
			}
		}
	}
}

func TestSmallestCanonicalOrder(t *testing.T) {
	// The SCP must be the canonical-order minimum of all escaping paths.
	g, s := paperfix.G0()
	snap := g.Snapshot()
	cov := scp.NewCoverage(snap, s.Neg)
	for v := 0; v < g.NumNodes(); v++ {
		nu := graph.NodeID(v)
		got, ok, _ := cov.Smallest(nu, 4)
		var want words.Word
		found := false
		for _, w := range snap.PathsUpTo(nu, 4, 0) {
			if !snap.MatchesAny(s.Neg, w) {
				want = w
				found = true
				break // PathsUpTo is already canonical-ordered
			}
		}
		if ok != found {
			t.Fatalf("node %d: ok=%v brute=%v", v, ok, found)
		}
		if ok && !words.Equal(got, want) {
			t.Fatalf("node %d: SCP %v, brute %v", v, got, want)
		}
	}
}

func TestNodeSetIndexInternCopy(t *testing.T) {
	ix := scp.NewNodeSetIndex()
	empty := ix.Intern(nil)
	scratch := []int32{3, 1, 2}
	id := ix.InternCopy(scratch)
	scratch[0] = 9 // the caller reuses its slice
	if got := ix.Set(id); !slices.Equal(got, []int32{3, 1, 2}) {
		t.Fatalf("interned vector changed with the caller's slice: %v", got)
	}
	if again := ix.InternCopy([]int32{3, 1, 2}); again != id {
		t.Fatalf("equal vector got id %d, want %d", again, id)
	}
	if other := ix.InternCopy(scratch); other == id || other == empty {
		t.Fatalf("distinct vector %v got id %d of an earlier one", scratch, other)
	}
	if ix.Intern([]int32{}) != empty || ix.Len() != 3 {
		t.Fatalf("index holds %d vectors, want 3 (∅, [3 1 2], [9 1 2])", ix.Len())
	}
}
