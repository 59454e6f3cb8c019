package charsample

import (
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/core"
	"pathquery/internal/query"
	"pathquery/internal/words"
)

func TestBuildPaperExampleQuery(t *testing.T) {
	// Theorem 3.5's running query (a·b)*·c: the characteristic sample has
	// two positive nodes (SCPs c and abc) and one negative node, like the
	// paper's Figure 7.
	a := alphabet.NewSorted("a", "b", "c")
	q := query.MustParse(a, "(a·b)*·c")
	g, s, err := Build(q)
	snap := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pos) != 2 {
		t.Fatalf("|CS+| = %d, want 2 (P+ = {c, abc})", len(s.Pos))
	}
	if len(s.Neg) != 1 {
		t.Fatalf("|CS−| = %d, want 1", len(s.Neg))
	}
	// The negative node's path language is L'(q): no prefix in L(q).
	neg := s.Neg[0]
	for _, w := range NegPathLanguage(q, 4) {
		if !snap.Matches(neg, w) {
			t.Fatalf("negative head misses %v ∈ L'", words.String(w, a))
		}
	}
	// And it covers nothing with a prefix in L(q): in particular not c.
	c, _ := a.Lookup("c")
	if snap.Matches(neg, words.Word{c}) {
		t.Fatal("negative head covers c ∈ L(q)")
	}
}

func TestVerifyPaperExample(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	ok, err := Verify(query.MustParse(a, "(a·b)*·c"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("learner did not identify (a·b)*·c from its characteristic sample")
	}
}

func TestVerifyNamedQueries(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	for _, src := range []string{
		"a",
		"a·b",
		"a·b·c",
		"a+b",
		"(a+b)·c",
		"a*·b",
		"(a·b)*·c",
		"a·(b+c)*·a",
		"(a+b)*·c",
		"c+(a·b·c)",
	} {
		ok, err := Verify(query.MustParse(a, src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !ok {
			t.Errorf("%s: not identified from characteristic sample", src)
		}
	}
}

func TestVerifyEpsilonQuery(t *testing.T) {
	// L = {ε}: the characteristic graph has no negative component (every
	// word has the prefix ε ∈ L, so L' is empty) and a single positive.
	a := alphabet.NewSorted("a", "b")
	q := query.MustParse(a, "ε")
	g, s, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Neg) != 0 {
		t.Fatalf("ε query should have no negative examples, got %d", len(s.Neg))
	}
	learned, err := core.Learn(g.Snapshot(), s, core.Options{K: KFor(q)})
	if err != nil {
		t.Fatal(err)
	}
	if !learned.DFA().Equal(q.PrefixFree().DFA()) {
		t.Fatalf("learned %v, want ε", learned)
	}
}

func TestBuildRejectsEmptyQuery(t *testing.T) {
	a := alphabet.NewSorted("a", "b")
	empty := query.FromDFA(a, automata.NewDFA(1, 2))
	if _, _, err := Build(empty); err == nil {
		t.Fatal("empty query should be rejected")
	}
}

func TestTheoremRandomQueriesIdentified(t *testing.T) {
	// The main learnability property test: random prefix-free queries are
	// identified exactly from their characteristic graph with k = 2n+1.
	rng := rand.New(rand.NewSource(47))
	a := alphabet.NewSorted("a", "b")
	tried := 0
	for i := 0; i < 150; i++ {
		d := automata.RandomPrefixFreeDFA(rng, 6, 2, 0.7)
		q := query.FromDFA(a, d)
		ok, err := Verify(q)
		if err != nil {
			t.Fatalf("iter %d (%v): %v", i, q, err)
		}
		if !ok {
			t.Fatalf("iter %d: query %v (size %d) not identified", i, q, q.Size())
		}
		tried++
	}
	if tried == 0 {
		t.Fatal("no queries exercised")
	}
}

func TestTheoremSurvivesConsistentExtension(t *testing.T) {
	// Definition 3.4's completeness clause: any sample extending CS
	// consistently with q still learns q. We extend with fresh nodes
	// labeled according to q.
	rng := rand.New(rand.NewSource(53))
	a := alphabet.NewSorted("a", "b")
	for i := 0; i < 60; i++ {
		d := automata.RandomPrefixFreeDFA(rng, 5, 2, 0.7)
		q := query.FromDFA(a, d)
		g, s, err := Build(q)
		if err != nil {
			t.Fatal(err)
		}
		// Extension: a chain spelling a random accepted word (positive) and
		// a dead-end node (negative unless q accepts ε — skip then).
		w, okw := automata.ShortestAccepted(q.DFA())
		if okw && len(w) > 0 {
			head := g.AddNode("extraPos")
			cur := head
			for j, sym := range w {
				next := g.AddNode("extraPos_" + string(rune('a'+j)))
				g.AddEdge(cur, sym, next)
				cur = next
			}
			s.Pos = append(s.Pos, head)
			// The dead-end chain tail covers only suffix-prefixes of w; its
			// label under q: selected iff q accepts ε, which prefix-free
			// non-ε queries don't.
			if !q.Accepts(words.Epsilon) {
				s.Neg = append(s.Neg, cur)
			}
		}
		learned, err := core.Learn(g.Snapshot(), s, core.Options{K: KFor(q)})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !learned.DFA().Equal(q.PrefixFree().DFA()) {
			t.Fatalf("iter %d: extension broke identification of %v", i, q)
		}
	}
}

func TestKForBound(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	q := query.MustParse(a, "(a·b)*·c") // size 3
	if got := KFor(q); got != 7 {
		t.Fatalf("KFor = %d, want 2·3+1 = 7", got)
	}
}

func TestCharacteristicSampleIsPolynomial(t *testing.T) {
	// |CS| (number of labeled nodes) is |P+| + 1 — linear in practice,
	// polynomial as the theorem requires.
	rng := rand.New(rand.NewSource(59))
	a := alphabet.NewSorted("a", "b")
	for i := 0; i < 60; i++ {
		d := automata.RandomPrefixFreeDFA(rng, 6, 2, 0.7)
		q := query.FromDFA(a, d)
		_, s, err := Build(q)
		if err != nil {
			t.Fatal(err)
		}
		n := q.Size() + 1
		if s.Size() > 2*n*n*2+1 {
			t.Fatalf("iter %d: |CS| = %d not polynomial-small for n=%d", i, s.Size(), n)
		}
	}
}
