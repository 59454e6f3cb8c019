package query_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/paperfix"
	"pathquery/internal/query"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	a := alphabet.NewSorted("a", "b", "c")
	q := query.MustParse(a, "(a·b)*·c")
	var buf bytes.Buffer
	if err := query.Save(&buf, q); err != nil {
		t.Fatal(err)
	}
	back, err := query.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.DFA().Equal(q.DFA()) {
		t.Fatal("round trip changed the DFA")
	}
	if back.Alphabet().Size() != a.Size() {
		t.Fatalf("alphabet size %d, want %d", back.Alphabet().Size(), a.Size())
	}
}

func TestSaveLoadRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := alphabet.NewSorted("x", "y")
	for i := 0; i < 60; i++ {
		d := automata.RandomNonEmptyDFA(rng, 6, 2, 0.7)
		q := query.FromDFA(a, d)
		var buf bytes.Buffer
		if err := query.Save(&buf, q); err != nil {
			t.Fatal(err)
		}
		back, err := query.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !back.DFA().Equal(q.DFA()) {
			t.Fatalf("iter %d: round trip changed the DFA", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"nope\n",
		"pathquery\nnolabels\n",
		"pathquery\nlabels a b\n", // missing DFA
		"pathquery\nlabels a\ndfa 1 2 0\nfinal\n",        // symbol mismatch
		"pathquery\nlabels a\ndfa 2 1 5\nfinal\n",        // bad start
		"pathquery\nlabels a\ndfa 2 1 0\nfinal 9\n",      // bad final
		"pathquery\nlabels a\ndfa 2 1 0\nfinal 1\nx y\n", // bad transition
	}
	for _, c := range cases {
		if _, err := query.Load(strings.NewReader(c)); err == nil {
			t.Errorf("Load(%q) unexpectedly succeeded", c)
		}
	}
}

func TestRebaseAcrossAlphabets(t *testing.T) {
	// A query learned over one graph evaluates on another graph whose
	// alphabet interned labels in a different order.
	src := alphabet.New()
	src.Intern("cinema") // cinema=0, tram=1 — reversed vs Figure 1's table
	src.Intern("tram")
	src.Intern("bus")
	q := query.MustParse(src, "(tram+bus)*·cinema")

	g, _ := paperfix.Figure1()
	rq := q.Rebase(g.Alphabet())
	want := query.MustParse(g.Alphabet(), "(tram+bus)*·cinema")
	if !rq.EquivalentTo(want) {
		t.Fatalf("rebased query %v differs from %v", rq, want)
	}
	if !rq.EquivalentOn(g.Snapshot(), want) {
		t.Fatal("rebased query selects different nodes")
	}
}

func TestRebaseDropsUnknownLabels(t *testing.T) {
	src := alphabet.NewSorted("a", "zz")
	q := query.MustParse(src, "a+zz")
	target := alphabet.NewSorted("a", "b")
	rq := q.Rebase(target)
	// zz cannot match on the target; the language collapses to a.
	want := query.MustParse(target, "a")
	if !rq.EquivalentTo(want) {
		t.Fatalf("rebased = %v, want a", rq)
	}
}

// TestEmptyQueryKeyStableUnderAlphabetGrowth: ∅'s canonical DFA is one
// non-final state with no transitions, so its CacheKey, like any other
// query's, does not change when a label is interned. A query rebased onto
// an alphabet lacking every one of its labels denotes ∅.
func TestEmptyQueryKeyStableUnderAlphabetGrowth(t *testing.T) {
	src := alphabet.NewSorted("a", "b")
	q := query.MustParse(src, "a·b")
	target := alphabet.NewSorted("x", "y")
	before := q.Rebase(target)
	if !before.IsEmpty() {
		t.Fatalf("a·b rebased onto {x, y} = %v, want ∅", before)
	}
	key := before.CacheKey()
	if want := automata.NewDFA(1, 0).CanonicalKey(); key != want {
		t.Fatalf("∅ keys %q, want %q: one state and no transitions", key, want)
	}
	target.Intern("z")
	after := q.Rebase(target)
	if got := after.CacheKey(); got != key {
		t.Fatalf("∅ keys %q after a label is interned, %q before", got, key)
	}
	// A non-empty query keys alike across the growth too.
	ab := query.MustParse(src, "a·b").CacheKey()
	src.Intern("c")
	if got := query.MustParse(src, "a·b").CacheKey(); got != ab {
		t.Fatalf("a·b keys %q after a label is interned, %q before", got, ab)
	}
}

func TestDFAMarshalRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 100; i++ {
		d := automata.RandomDFA(rng, 8, 3, 0.6)
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := automata.ReadDFA(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(d) {
			t.Fatalf("iter %d: marshal round trip changed the DFA", i)
		}
	}
}
