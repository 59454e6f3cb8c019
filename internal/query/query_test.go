package query_test

import (
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/graph"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
	"pathquery/internal/words"
)

func TestParseAndSize(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	q := query.MustParse(a, "(a·b)*·c")
	if q.Size() != 3 {
		t.Fatalf("size = %d, want 3 (Figure 4)", q.Size())
	}
	if q.IsEmpty() {
		t.Fatal("query is not empty")
	}
	if _, err := query.Parse(a, "(((("); err == nil {
		t.Fatal("bad syntax accepted")
	}
}

func TestSelectOnG0(t *testing.T) {
	g, _ := paperfix.G0()
	snap := g.Snapshot()
	q := query.MustParse(g.Alphabet(), "(a·b)*·c")
	nodes := q.Evaluate(snap).Nodes()
	if len(nodes) != 2 {
		t.Fatalf("selected %d nodes", len(nodes))
	}
	names := []string{g.NodeName(nodes[0]), g.NodeName(nodes[1])}
	if names[0] != "v1" || names[1] != "v3" {
		t.Fatalf("selected %v", names)
	}
	if got := q.Evaluate(snap).Selectivity(); got != 2.0/7 {
		t.Fatalf("selectivity = %v", got)
	}
	// Selects agrees with Evaluate on every node: it holds at v1 and v3
	// and at no other node, the sample's negatives included.
	sel := q.Evaluate(snap)
	for v := 0; v < g.NumNodes(); v++ {
		if q.Selects(snap, graph.NodeID(v)) != sel.Vector()[v] {
			t.Fatalf("Selects disagrees with Evaluate at %s", g.NodeName(graph.NodeID(v)))
		}
	}
}

func TestEquivalence(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	q1 := query.MustParse(a, "a")
	q2 := query.MustParse(a, "a·b*")
	// Not equivalent as languages...
	if q1.EquivalentTo(q2) {
		t.Fatal("a and a·b* differ as languages")
	}
	// ...but equivalent as queries: same prefix-free representative.
	if !q1.EquivalentTo(q2.PrefixFree()) {
		t.Fatal("prefix-free of a·b* should be a")
	}
	// And they select the same nodes on every graph; check G0.
	g, _ := paperfix.G0()
	ga := query.MustParse(g.Alphabet(), "a")
	gab := query.MustParse(g.Alphabet(), "a·b*")
	if !ga.EquivalentOn(g.Snapshot(), gab) {
		t.Fatal("a and a·b* must select the same nodes")
	}
}

func TestFromDFACanonicalizes(t *testing.T) {
	a := alphabet.NewSorted("a", "b")
	// A deliberately bloated DFA for the language a.
	d := automata.NewDFA(4, 2)
	d.Start = 0
	d.Delta[0][0] = 1
	d.Final[1] = true
	d.Delta[2][0] = 3 // unreachable garbage
	q := query.FromDFA(a, d)
	if q.Size() != 2 {
		t.Fatalf("size = %d, want 2", q.Size())
	}
	if !q.EquivalentTo(query.MustParse(a, "a")) {
		t.Fatal("language changed")
	}
}

func TestStringRoundTrip(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	src := "(a·b)*·c"
	q := query.MustParse(a, src)
	if q.String() != src {
		t.Fatalf("String = %q", q.String())
	}
	// A learned (DFA-only) query prints an extracted expression that
	// reparses to the same language.
	learned := query.FromDFA(a, q.DFA())
	back := query.MustParse(a, learned.String())
	if !back.EquivalentTo(q) {
		t.Fatalf("extracted expression %q denotes a different language", learned.String())
	}
}

func TestAcceptsAndPrefixFree(t *testing.T) {
	a := alphabet.NewSorted("a", "b")
	q := query.MustParse(a, "a·b*")
	ab := words.FromLabels(a, "a", "b")
	if !q.Accepts(ab) {
		t.Fatal("a·b* should accept ab")
	}
	pf := q.PrefixFree()
	if pf.Accepts(ab) {
		t.Fatal("prefix-free representative should not accept ab")
	}
	if !pf.Accepts(words.FromLabels(a, "a")) {
		t.Fatal("prefix-free representative should accept a")
	}
}

func TestBinarySemantics(t *testing.T) {
	g, _ := paperfix.Figure1()
	snap := g.Snapshot()
	q := query.MustParse(g.Alphabet(), "(tram+bus)*·cinema")
	n2, _ := g.NodeByName("N2")
	n5, _ := g.NodeByName("N5")
	c1, _ := g.NodeByName("C1")
	if !q.SelectsPair(snap, n2, c1) {
		t.Fatal("(N2, C1) should be selected")
	}
	if q.SelectsPair(snap, n5, c1) {
		t.Fatal("(N5, C1) should not be selected")
	}
	pairs := q.SelectPairsFrom(snap, n2)
	if len(pairs) != 1 || g.NodeName(pairs[0]) != "C1" {
		t.Fatalf("pairs from N2 = %v", pairs)
	}
}

func TestNaryValidation(t *testing.T) {
	a := alphabet.NewSorted("a", "b")
	if _, err := query.NewNary(); err == nil {
		t.Fatal("empty n-ary query accepted")
	}
	q1 := query.MustParse(a, "a")
	other := alphabet.NewSorted("a", "b")
	q2 := query.MustParse(other, "b")
	if _, err := query.NewNary(q1, q2); err == nil {
		t.Fatal("mixed alphabets accepted")
	}
	nq, err := query.NewNary(q1, query.MustParse(a, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if nq.Arity() != 3 {
		t.Fatalf("arity = %d", nq.Arity())
	}
	if nq.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestNarySelectsTuple(t *testing.T) {
	g, _ := paperfix.Figure1()
	snap := g.Snapshot()
	transport := query.MustParse(g.Alphabet(), "(tram+bus)*")
	cinema := query.MustParse(g.Alphabet(), "cinema")
	nq, err := query.NewNary(transport, cinema)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := g.NodeByName("N2")
	n4, _ := g.NodeByName("N4")
	c1, _ := g.NodeByName("C1")
	ok, err := nq.SelectsTuple(snap, []graph.NodeID{n2, n4, c1})
	if err != nil || !ok {
		t.Fatalf("tuple (N2,N4,C1): ok=%v err=%v", ok, err)
	}
	if _, err := nq.SelectsTuple(snap, []graph.NodeID{n2, n4}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestEmptyQuerySelectsNothing(t *testing.T) {
	g, _ := paperfix.G0()
	empty := query.FromDFA(g.Alphabet(), automata.NewDFA(1, g.Alphabet().Size()))
	if nodes := empty.Evaluate(g.Snapshot()).Nodes(); len(nodes) != 0 {
		t.Fatalf("empty query selected %v", nodes)
	}
	if !empty.IsEmpty() {
		t.Fatal("IsEmpty = false")
	}
}

func TestEpsilonQuerySelectsEverything(t *testing.T) {
	g, _ := paperfix.G0()
	eps := query.MustParse(g.Alphabet(), "ε")
	if got := len(eps.Evaluate(g.Snapshot()).Nodes()); got != g.NumNodes() {
		t.Fatalf("ε selected %d of %d", got, g.NumNodes())
	}
}
