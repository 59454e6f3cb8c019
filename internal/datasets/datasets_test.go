package datasets

import (
	"math"
	"math/rand"
	"testing"

	"pathquery/internal/graph"
	"pathquery/internal/query"
)

func TestZipfDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(10, 1.0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	// Rank 0 must be the most frequent and the counts must decrease
	// (weakly) with rank.
	for r := 1; r < 10; r++ {
		if counts[r] > counts[r-1] {
			t.Fatalf("rank %d more frequent than rank %d (%d > %d)",
				r, r-1, counts[r], counts[r-1])
		}
	}
	// Rank 0 frequency ≈ 1/H10 ≈ 0.341.
	got := float64(counts[0]) / n
	if math.Abs(got-0.3414) > 0.01 {
		t.Fatalf("rank-0 frequency = %.4f, want ≈ 0.341", got)
	}
}

func TestScaleFreeShape(t *testing.T) {
	g := ScaleFree(ScaleFreeConfig{Nodes: 2000, Edges: 6000, Labels: 10, ZipfS: 1, Seed: 7})
	if g.NumNodes() != 2000 || g.NumEdges() != 6000 {
		t.Fatalf("size = %d/%d", g.NumNodes(), g.NumEdges())
	}
	// Heavy tail: the max out-degree must far exceed the mean (3).
	maxDeg := 0
	snap := g.Snapshot()
	for v := 0; v < snap.NumNodes(); v++ {
		if d := snap.OutDegree(graph.NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 15 {
		t.Fatalf("max out-degree = %d; expected a heavy-tailed hub ≫ mean 3", maxDeg)
	}
}

func TestScaleFreeDeterministic(t *testing.T) {
	a := ScaleFree(ScaleFreeConfig{Nodes: 100, Edges: 300, Labels: 5, ZipfS: 1, Seed: 3}).Snapshot()
	b := ScaleFree(ScaleFreeConfig{Nodes: 100, Edges: 300, Labels: 5, ZipfS: 1, Seed: 3}).Snapshot()
	for v := 0; v < a.NumNodes(); v++ {
		ea, eb := a.OutEdges(graph.NodeID(v)), b.OutEdges(graph.NodeID(v))
		if len(ea) != len(eb) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("node %d edge %d differs", v, i)
			}
		}
	}
	c := ScaleFree(ScaleFreeConfig{Nodes: 100, Edges: 300, Labels: 5, ZipfS: 1, Seed: 4}).Snapshot()
	same := true
	for v := 0; v < a.NumNodes() && same; v++ {
		ea, ec := a.OutEdges(graph.NodeID(v)), c.OutEdges(graph.NodeID(v))
		if len(ea) != len(ec) {
			same = false
			break
		}
		for i := range ea {
			if ea[i] != ec[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestAliBabaSize(t *testing.T) {
	g := AliBaba()
	if g.NumNodes() != AliBabaNodes || g.NumEdges() != AliBabaEdges {
		t.Fatalf("AliBaba = %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestBioQuerySelectivityOrdering(t *testing.T) {
	// Table 1's selectivity ordering must carry over to the stand-in:
	// bio1, bio2 ≪ bio3 < {bio4, bio5} < bio6, with every query selecting
	// at least one node (the paper's retention criterion).
	g := AliBaba()
	snap := g.Snapshot()
	qs := BioQueries(snap)
	if len(qs) != 6 {
		t.Fatalf("%d bio queries", len(qs))
	}
	sel := make(map[string]float64, 6)
	for _, nq := range qs {
		s := nq.Query.Evaluate(snap).Selectivity()
		sel[nq.Name] = s
		if s == 0 {
			t.Errorf("%s selects no node", nq.Name)
		}
	}
	if !(sel["bio1"] < sel["bio2"]) {
		t.Errorf("bio1 (%.4f) should be more selective than bio2 (%.4f)", sel["bio1"], sel["bio2"])
	}
	if !(sel["bio2"] < sel["bio3"]) {
		t.Errorf("bio2 (%.4f) should be more selective than bio3 (%.4f)", sel["bio2"], sel["bio3"])
	}
	if !(sel["bio3"] < sel["bio4"]) {
		t.Errorf("bio3 (%.4f) should be more selective than bio4 (%.4f)", sel["bio3"], sel["bio4"])
	}
	if !(sel["bio3"] < sel["bio5"]) {
		t.Errorf("bio3 (%.4f) should be more selective than bio5 (%.4f)", sel["bio3"], sel["bio5"])
	}
	if !(sel["bio4"] < sel["bio6"]) {
		t.Errorf("bio4 (%.4f) should be more selective than bio6 (%.4f)", sel["bio4"], sel["bio6"])
	}
	if !(sel["bio5"] < sel["bio6"]) {
		t.Errorf("bio5 ≤ bio6 must hold by construction (A·A·A*·I·I·I* ⊆-selects A·A·A*)")
	}
	// Magnitude bands: the most selective stay sub-percent, the broadest
	// reaches the tens of percent, as in Table 1.
	if sel["bio1"] > 0.01 {
		t.Errorf("bio1 = %.4f; want < 1%%", sel["bio1"])
	}
	if sel["bio6"] < 0.10 || sel["bio6"] > 0.45 {
		t.Errorf("bio6 = %.4f; want within [10%%, 45%%]", sel["bio6"])
	}
}

func TestBio5SubsumedByBio6(t *testing.T) {
	// Structural invariant: every node selected by bio5 is selected by
	// bio6 (an A·A·A*·I·I·I* path starts with an A·A·A* path).
	g := AliBaba()
	snap := g.Snapshot()
	qs := BioQueries(snap)
	var bio5, bio6 *query.Query
	for _, nq := range qs {
		switch nq.Name {
		case "bio5":
			bio5 = nq.Query
		case "bio6":
			bio6 = nq.Query
		}
	}
	s5, s6 := bio5.Evaluate(snap).Vector(), bio6.Evaluate(snap).Vector()
	for v := range s5 {
		if s5[v] && !s6[v] {
			t.Fatalf("node %d selected by bio5 but not bio6", v)
		}
	}
}

func TestSynQueriesHitTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep on a 10k-node graph")
	}
	g := Synthetic(10000, 1)
	snap := g.Snapshot()
	if g.NumEdges() != 3*g.NumNodes() {
		t.Fatalf("|E| = %d, want 3·|V|", g.NumEdges())
	}
	for i, nq := range SynQueriesOn(snap) {
		got := nq.Query.Evaluate(snap).Selectivity()
		target := SynTargets[i]
		// Within 40% relative or 2 points absolute of the paper's target.
		if math.Abs(got-target) > 0.02 && math.Abs(got-target)/target > 0.4 {
			t.Errorf("%s selectivity %.4f, target %.2f", nq.Name, got, target)
		}
	}
}

func TestRandomSampleLabelsMatchGoal(t *testing.T) {
	g := Synthetic(1000, 5)
	snap := g.Snapshot()
	nq := SynQueriesOn(snap)[1]
	rng := rand.New(rand.NewSource(9))
	pos, neg := RandomSample(snap, nq.Query, 0.05, rng)
	if len(pos)+len(neg) != 50 {
		t.Fatalf("sample size = %d, want 50", len(pos)+len(neg))
	}
	sel := nq.Query.Evaluate(snap).Vector()
	for _, v := range pos {
		if !sel[v] {
			t.Fatalf("positive %d not selected by goal", v)
		}
	}
	for _, v := range neg {
		if sel[v] {
			t.Fatalf("negative %d selected by goal", v)
		}
	}
}

func TestNamedQueryRegex(t *testing.T) {
	g := AliBaba()
	for _, nq := range BioQueries(g.Snapshot()) {
		if nq.Regex() == nil {
			t.Fatalf("%s has no regex", nq.Name)
		}
	}
}

// TestSnapshotWorkloadsPinned: the workload builders are pure functions
// of the pinned snapshot — mutating the graph after pinning changes
// neither the chosen queries nor the sample.
func TestSnapshotWorkloadsPinned(t *testing.T) {
	g := Synthetic(800, 3)
	s := g.Snapshot()

	wantBio := BioQueries(s)
	wantSyn := SynQueriesOn(s)
	// The calibrated picks on this graph, recorded so that a change to
	// the calibration search that moves a pick fails here.
	for i, want := range []string{
		"l06·(l01+l02+l03+l04)*·l16",
		"(l02+l03+l04)·(l01+l02+l03+l04)*·(l06+l07)",
		"(l00+l01+l02+l03)·(l01+l02+l03+l04)*·(l14+l15+l16+l17+l18+l19)",
	} {
		if wantSyn[i].Expr != want {
			t.Fatalf("%s calibrated to %q, want %q", wantSyn[i].Name, wantSyn[i].Expr, want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	wantPos, wantNeg := RandomSample(s, wantSyn[0].Query, 0.05, rng)

	// Advance the live graph past the pinned epoch.
	a := g.AddNode("pin-a")
	b := g.AddNode("pin-b")
	for i := 0; i < 200; i++ {
		g.AddEdge(a, 0, b)
	}

	gotBio := BioQueries(s)
	for i := range wantBio {
		if gotBio[i].Expr != wantBio[i].Expr {
			t.Fatalf("%s drifted after mutation: %q vs %q", wantBio[i].Name, gotBio[i].Expr, wantBio[i].Expr)
		}
	}
	gotSyn := SynQueriesOn(s)
	for i := range wantSyn {
		if gotSyn[i].Expr != wantSyn[i].Expr {
			t.Fatalf("%s drifted after mutation: %q vs %q", wantSyn[i].Name, gotSyn[i].Expr, wantSyn[i].Expr)
		}
	}
	rng = rand.New(rand.NewSource(4))
	gotPos, gotNeg := RandomSample(s, gotSyn[0].Query, 0.05, rng)
	if len(gotPos) != len(wantPos) || len(gotNeg) != len(wantNeg) {
		t.Fatalf("sample drifted after mutation: %d/%d vs %d/%d",
			len(gotPos), len(gotNeg), len(wantPos), len(wantNeg))
	}
	for i := range gotPos {
		if gotPos[i] != wantPos[i] {
			t.Fatalf("positive sample drifted at %d", i)
		}
	}
}
