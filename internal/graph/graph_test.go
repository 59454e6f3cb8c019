package graph_test

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
	"pathquery/internal/plan"
	"pathquery/internal/regex"
	"pathquery/internal/scp"
	"pathquery/internal/words"
)

func mustNode(t *testing.T, g *graph.Graph, name string) graph.NodeID {
	t.Helper()
	id, ok := g.NodeByName(name)
	if !ok {
		t.Fatalf("node %q missing", name)
	}
	return id
}

func wordOf(t *testing.T, g *graph.Graph, labels ...string) words.Word {
	t.Helper()
	w := make(words.Word, len(labels))
	for i, l := range labels {
		sym, ok := g.Alphabet().Lookup(l)
		if !ok {
			t.Fatalf("label %q missing", l)
		}
		w[i] = sym
	}
	return w
}

// compileOn parses src over g's alphabet into a shape-preserving plan.
func compileOn(t *testing.T, g *graph.Graph, src string) *plan.Plan {
	t.Helper()
	n, err := regex.Parse(g.Alphabet(), src)
	if err != nil {
		t.Fatal(err)
	}
	return plan.FromDFA(automata.CompileRegex(n, g.Alphabet().Size()))
}

func TestAddNodeIdempotent(t *testing.T) {
	g := graph.New(nil)
	a := g.AddNode("x")
	b := g.AddNode("x")
	if a != b {
		t.Fatalf("AddNode not idempotent: %d vs %d", a, b)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}

func TestOutEdgesSorted(t *testing.T) {
	g := graph.New(alphabet.NewSorted("a", "b", "c"))
	g.AddEdgeByName("x", "c", "y")
	g.AddEdgeByName("x", "a", "z")
	g.AddEdgeByName("x", "b", "y")
	x := mustNode(t, g, "x")
	es := g.Snapshot().OutEdges(x)
	for i := 1; i < len(es); i++ {
		if es[i-1].Sym > es[i].Sym {
			t.Fatalf("out edges not sorted: %v", es)
		}
	}
}

func TestPaperG0PathClaims(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	v1 := mustNode(t, g, "v1")
	v3 := mustNode(t, g, "v3")
	v5 := mustNode(t, g, "v5")

	// "aba matches ν1ν2ν3ν4 and ν3ν2ν3ν4" — at least, aba ∈ paths(ν1) and
	// paths(ν3).
	aba := wordOf(t, g, "a", "b", "a")
	if !snap.Matches(v1, aba) || !snap.Matches(v3, aba) {
		t.Fatal("aba should match from v1 and v3")
	}
	// paths(ν5) = {ε, a, b} (adapted; see paperfix docs).
	got := snap.PathsUpTo(v5, 10, 0)
	want := []string{"ε", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("paths(v5) = %d words, want %d", len(got), len(want))
	}
	for i := range got {
		if words.String(got[i], g.Alphabet()) != want[i] {
			t.Fatalf("paths(v5)[%d] = %v", i, words.String(got[i], g.Alphabet()))
		}
	}
	// paths(ν1) is infinite: a cycle is reachable from ν1.
	if !snap.HasCycleFrom(v1) {
		t.Fatal("paths(v1) should be infinite")
	}
	if snap.HasCycleFrom(v5) {
		t.Fatal("paths(v5) is finite")
	}
}

func TestPaperG0QuerySemantics(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	// "the query a selects all nodes except ν4".
	sel := snap.SelectMonadicPlan(compileOn(t, g, "a"))
	for v := 0; v < g.NumNodes(); v++ {
		want := g.NodeName(graph.NodeID(v)) != "v4"
		if sel[v] != want {
			t.Errorf("query a on %s = %v, want %v", g.NodeName(graph.NodeID(v)), sel[v], want)
		}
	}
	// "the query (a·b)*·c selects the nodes ν1 and ν3".
	sel = snap.SelectMonadicPlan(compileOn(t, g, "(a·b)*·c"))
	for v := 0; v < g.NumNodes(); v++ {
		name := g.NodeName(graph.NodeID(v))
		want := name == "v1" || name == "v3"
		if sel[v] != want {
			t.Errorf("(a·b)*·c on %s = %v, want %v", name, sel[v], want)
		}
	}
	// "the query b·b·c·c selects no node".
	sel = snap.SelectMonadicPlan(compileOn(t, g, "b·b·c·c"))
	for v, s := range sel {
		if s {
			t.Errorf("b·b·c·c selects %s", g.NodeName(graph.NodeID(v)))
		}
	}
}

func TestFigure1QuerySemantics(t *testing.T) {
	g, s := paperfix.Figure1()
	sel := g.Snapshot().SelectMonadicPlan(compileOn(t, g, "(tram+bus)*·cinema"))
	want := map[string]bool{"N1": true, "N2": true, "N4": true, "N6": true}
	for v := 0; v < g.NumNodes(); v++ {
		name := g.NodeName(graph.NodeID(v))
		if sel[v] != want[name] {
			t.Errorf("query on %s = %v, want %v", name, sel[v], want[name])
		}
	}
	// The sample's positives are selected, negatives are not.
	for _, p := range s.Pos {
		if !sel[p] {
			t.Errorf("positive %s not selected", g.NodeName(p))
		}
	}
	for _, n := range s.Neg {
		if sel[n] {
			t.Errorf("negative %s selected", g.NodeName(n))
		}
	}
}

func TestCoversMatchesSelectMonadic(t *testing.T) {
	// WitnessPathPlan's verdict (the single-node forward check behind
	// query.Query.Selects) must agree with SelectMonadicPlan (all-nodes
	// backward pass) on random graphs and queries.
	rng := rand.New(rand.NewSource(5))
	alpha := alphabet.NewSorted("a", "b", "c")
	for iter := 0; iter < 50; iter++ {
		snap := randomGraph(rng, alpha, 12, 30).Snapshot()
		p := plan.FromDFA(automata.RandomNonEmptyDFA(rng, 5, alpha.Size(), 0.6))
		sel := snap.SelectMonadicPlan(p)
		for v := 0; v < snap.NumNodes(); v++ {
			if _, got, _ := snap.WitnessPathPlan(context.Background(), p, graph.NodeID(v)); got != sel[v] {
				t.Fatalf("iter %d: WitnessPathPlan(%d) ok = %v, SelectMonadicPlan = %v", iter, v, got, sel[v])
			}
		}
	}
}

func randomGraph(rng *rand.Rand, alpha *alphabet.Alphabet, nodes, edges int) *graph.Graph {
	g := graph.New(alpha)
	for i := 0; i < nodes; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < edges; i++ {
		from := graph.NodeID(rng.Intn(nodes))
		to := graph.NodeID(rng.Intn(nodes))
		sym := alphabet.Symbol(rng.Intn(alpha.Size()))
		g.AddEdge(from, sym, to)
	}
	return g
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestSelectMonadicAgainstPathEnumeration(t *testing.T) {
	// Cross-check the product construction against brute-force enumeration
	// of bounded paths on acyclic-ish graphs.
	rng := rand.New(rand.NewSource(9))
	alpha := alphabet.NewSorted("a", "b")
	for iter := 0; iter < 40; iter++ {
		g := graph.New(alpha)
		const n = 8
		for i := 0; i < n; i++ {
			g.AddNode(nodeName(i))
		}
		// Forward-only edges: acyclic, so paths are finite and short.
		for i := 0; i < 16; i++ {
			from := rng.Intn(n - 1)
			to := from + 1 + rng.Intn(n-from-1)
			g.AddEdge(graph.NodeID(from), alphabet.Symbol(rng.Intn(2)), graph.NodeID(to))
		}
		d := automata.RandomNonEmptyDFA(rng, 4, 2, 0.7)
		sel := g.Snapshot().SelectMonadicPlan(plan.FromDFA(d))
		for v := 0; v < n; v++ {
			brute := false
			for _, w := range g.Snapshot().PathsUpTo(graph.NodeID(v), n, 0) {
				if d.Accepts(w) {
					brute = true
					break
				}
			}
			if sel[v] != brute {
				t.Fatalf("iter %d node %d: product %v, brute %v", iter, v, sel[v], brute)
			}
		}
	}
}

func TestCoversAnyIsUnionOfCovers(t *testing.T) {
	// Whether a query covers a node set is the union of its per-node
	// verdicts, each the witness search behind query.Query.Selects:
	// (a·b)*·c on G0 covers both positives and no negative, agreeing with
	// the all-nodes selection.
	g, s := paperfix.G0()
	snap := g.Snapshot()
	p := compileOn(t, g, "(a·b)*·c")
	sel := snap.SelectMonadicPlan(p)
	for _, set := range []struct {
		nodes []graph.NodeID
		want  bool
	}{{s.Pos, true}, {s.Neg, false}} {
		for _, v := range set.nodes {
			_, ok, err := snap.WitnessPathPlan(context.Background(), p, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok != set.want || sel[v] != set.want {
				t.Fatalf("(a·b)*·c at %s: witness search %v, SelectMonadicPlan %v, want %v",
					g.NodeName(v), ok, sel[v], set.want)
			}
		}
	}
}

func TestCoversPairBinarySemantics(t *testing.T) {
	g, _ := paperfix.Figure1()
	n2 := mustNode(t, g, "N2")
	c1 := mustNode(t, g, "C1")
	c2 := mustNode(t, g, "C2")
	snap := g.Snapshot()
	p := compileOn(t, g, "(tram+bus)*·cinema")
	if !snap.CoversPairPlan(p, n2, c1) {
		t.Fatal("N2 reaches C1 via bus·tram·cinema")
	}
	if snap.CoversPairPlan(p, n2, c2) {
		t.Fatal("N2 cannot reach C2")
	}
	// ε only relates a node to itself when the query accepts ε.
	eps := compileOn(t, g, "ε")
	if !snap.CoversPairPlan(eps, n2, n2) {
		t.Fatal("ε should relate N2 to itself")
	}
	if snap.CoversPairPlan(eps, n2, c1) {
		t.Fatal("ε should not relate distinct nodes")
	}
}

func TestSelectBinaryFrom(t *testing.T) {
	g, _ := paperfix.Figure1()
	n2 := mustNode(t, g, "N2")
	got := g.Snapshot().SelectBinaryFromPlan(compileOn(t, g, "(tram+bus)*·cinema"), n2)
	var names []string
	for _, v := range got {
		names = append(names, g.NodeName(v))
	}
	sort.Strings(names)
	if len(names) != 1 || names[0] != "C1" {
		t.Fatalf("SelectBinaryFromPlan(N2) = %v, want [C1]", names)
	}
}

// TestPathsIncluded and the tests after it check path-language inclusion
// paths(ν) ⊆ paths(X) and its first escaping path, which the unbounded
// SCP search answers (scp.Coverage.Smallest with k < 0): it finds no
// escaping word iff the inclusion holds.
func TestPathsIncluded(t *testing.T) {
	g, s := paperfix.Figure5()
	snap := g.Snapshot()
	// Figure 5's point: the positive's paths are all covered by negatives.
	both := scp.NewCoverage(snap, s.Neg)
	for _, nu := range s.Pos {
		if w, ok, _ := both.Smallest(nu, -1); ok {
			t.Fatalf("figure 5 positive should be covered by the negatives; %v escapes", w)
		}
	}
	// But not by a single negative.
	w, ok, _ := scp.NewCoverage(snap, s.Neg[:1]).Smallest(s.Pos[0], -1)
	if !ok {
		t.Fatal("neg1 alone does not cover a·Σ* and b·Σ*: expected an escaping path")
	}
	if words.String(w, g.Alphabet()) != "b" {
		t.Fatalf("first escaping path = %v, want b", words.String(w, g.Alphabet()))
	}
}

func TestPathsIncludedAgainstAutomata(t *testing.T) {
	// Cross-check graph-side inclusion against the automata package on the
	// materialized NFAs: paths(left) ⊆ paths(right) iff
	// L(AsNFA(left)) ⊆ L(AsNFA(right)).
	rng := rand.New(rand.NewSource(21))
	alpha := alphabet.NewSorted("a", "b")
	for iter := 0; iter < 60; iter++ {
		g := randomGraph(rng, alpha, 7, 14)
		left := []graph.NodeID{graph.NodeID(rng.Intn(7))}
		right := []graph.NodeID{graph.NodeID(rng.Intn(7)), graph.NodeID(rng.Intn(7))}
		want := automata.Included(
			automata.Minimize(automata.Determinize(g.Snapshot().AsNFA(left))),
			automata.Minimize(automata.Determinize(g.Snapshot().AsNFA(right))))
		_, escapes, cut := scp.NewCoverage(g.Snapshot(), right).Smallest(left[0], -1)
		if cut {
			t.Fatalf("iter %d: an unbounded search reported a cut", iter)
		}
		if got := !escapes; got != want {
			t.Fatalf("iter %d: included = %v, automata = %v", iter, got, want)
		}
	}
}

func TestFirstEscapingPathDepthBound(t *testing.T) {
	g, s := paperfix.G0()
	cov := scp.NewCoverage(g.Snapshot(), s.Neg)
	v1 := mustNode(t, g, "v1")
	// SCP(ν1) = abc has length 3; with depth 2 it must not be found, and
	// the bound, not exhaustion, must be what stopped the search.
	if _, ok, cut := cov.Smallest(v1, 2); ok || !cut {
		t.Fatalf("depth 2: ok = %v, cut = %v; want no escaping path, cut by the bound", ok, cut)
	}
	w, ok, _ := cov.Smallest(v1, 3)
	if !ok || words.String(w, g.Alphabet()) != "a·b·c" {
		t.Fatalf("escaping path = %v, want a·b·c", w)
	}
}

func TestMatchesAndMatchesAny(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	v1 := mustNode(t, g, "v1")
	v5 := mustNode(t, g, "v5")
	if !snap.Matches(v1, words.Epsilon) {
		t.Fatal("ε matches everywhere")
	}
	if snap.Matches(v5, wordOf(t, g, "c")) {
		t.Fatal("v5 has no c path")
	}
	if !snap.MatchesAny([]graph.NodeID{v5, v1}, wordOf(t, g, "a", "b", "c")) {
		t.Fatal("v1 covers abc")
	}
	if snap.MatchesAny(nil, words.Epsilon) {
		t.Fatal("empty set covers nothing")
	}
}

func TestPathsUpToLimit(t *testing.T) {
	g, _ := paperfix.G0()
	v1 := mustNode(t, g, "v1")
	got := g.Snapshot().PathsUpTo(v1, 10, 5)
	if len(got) != 5 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !words.Less(got[i-1], got[i]) {
			t.Fatalf("paths not in canonical order at %d", i)
		}
	}
}

func TestNeighborhood(t *testing.T) {
	g, _ := paperfix.Figure1()
	n4 := mustNode(t, g, "N4")
	nb := g.Snapshot().Neighborhood(n4, 1)
	names := map[string]bool{}
	for _, v := range nb {
		names[g.NodeName(v)] = true
	}
	// Radius 1 around N4: N4 itself, C1 (out), N1 (both directions).
	for _, want := range []string{"N4", "C1", "N1"} {
		if !names[want] {
			t.Errorf("neighborhood missing %s (got %v)", want, names)
		}
	}
	if names["N5"] {
		t.Error("N5 is not within radius 1 of N4")
	}
}

func TestSubgraph(t *testing.T) {
	g, _ := paperfix.Figure1()
	snap := g.Snapshot()
	n4 := mustNode(t, g, "N4")
	sub := snap.Subgraph(snap.Neighborhood(n4, 1))
	if sub.NumNodes() == 0 || sub.NumNodes() >= g.NumNodes() {
		t.Fatalf("subgraph size = %d", sub.NumNodes())
	}
	// The cinema edge N4 → C1 survives.
	sn4, ok := sub.NodeByName("N4")
	if !ok {
		t.Fatal("N4 missing from subgraph")
	}
	found := false
	for _, e := range sub.Snapshot().OutEdges(sn4) {
		if sub.Alphabet().Name(e.Sym) == "cinema" {
			found = true
		}
	}
	if !found {
		t.Fatal("cinema edge lost in subgraph")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g, _ := paperfix.G0()
	var buf bytes.Buffer
	if err := g.Snapshot().WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadTSV(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			back.NumNodes(), g.NumNodes(), back.NumEdges(), g.NumEdges())
	}
	// Same selection behavior after round trip.
	s1 := g.Snapshot().SelectMonadicPlan(compileOn(t, g, "(a·b)*·c"))
	s2 := back.Snapshot().SelectMonadicPlan(compileOn(t, back, "(a·b)*·c"))
	for v := range s1 {
		if s1[v] != s2[v] {
			t.Fatalf("selection differs after round trip at node %d", v)
		}
	}
	// A second serialization is byte-identical (determinism).
	var buf2 bytes.Buffer
	if err := back.Snapshot().WriteTSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"x\tfoo\n",
		"v\n",
		"e\ta\tb\n",
	}
	for _, c := range cases {
		if _, err := graph.ReadTSV(bytes.NewReader([]byte(c)), nil); err == nil {
			t.Errorf("ReadTSV(%q) should fail", c)
		}
	}
	// Comments and blank lines are fine.
	g, err := graph.ReadTSV(bytes.NewReader([]byte("# hi\n\nv\tx\n")), nil)
	if err != nil || g.NumNodes() != 1 {
		t.Fatalf("comment handling broken: %v", err)
	}
}
