package hardness

import (
	"math/rand"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/core"
	"pathquery/internal/regex"
)

func compile(t *testing.T, a *alphabet.Alphabet, src string) *automata.DFA {
	t.Helper()
	n, err := regex.Parse(a, src)
	if err != nil {
		t.Fatal(err)
	}
	return automata.CompileRegex(n, a.Size())
}

func TestLemma32ReductionNonUniversal(t *testing.T) {
	// ∪ = a* over {a,b} is not universal → the sample must be consistent.
	a := alphabet.NewSorted("a", "b")
	ds := []*automata.DFA{compile(t, a, "a*")}
	g, s := FromDFAUnion(a, ds)
	snap := g.Snapshot()
	if universal, _ := automata.UnionUniversal(ds); universal {
		t.Fatal("a* should not be universal")
	}
	if !core.Consistent(snap, s) {
		t.Fatal("reduction: non-universal union must yield a consistent sample")
	}
	// And the learner can actually find a consistent query.
	if _, err := core.Learn(snap, s, core.Options{}); err != nil {
		t.Fatalf("learner abstained on consistent gadget: %v", err)
	}
}

func TestLemma32ReductionUniversal(t *testing.T) {
	// ∪ = Σ* → the sample must be inconsistent.
	a := alphabet.NewSorted("a", "b")
	ds := []*automata.DFA{compile(t, a, "(a+b)*")}
	g, s := FromDFAUnion(a, ds)
	if universal, _ := automata.UnionUniversal(ds); !universal {
		t.Fatal("(a+b)* should be universal")
	}
	if core.Consistent(g.Snapshot(), s) {
		t.Fatal("reduction: universal union must yield an inconsistent sample")
	}
}

func TestLemma32ReductionSplitUnion(t *testing.T) {
	// Universality achieved only through the union of two DFAs.
	a := alphabet.NewSorted("a", "b")
	ds := []*automata.DFA{
		compile(t, a, "a·(a+b)*+ε"),
		compile(t, a, "b·(a+b)*"),
	}
	g, s := FromDFAUnion(a, ds)
	if core.Consistent(g.Snapshot(), s) {
		t.Fatal("split-universal union must yield an inconsistent sample")
	}
	// Removing one DFA breaks universality → consistent again.
	g2, s2 := FromDFAUnion(alphabet.NewSorted("a", "b"), ds[:1])
	if !core.Consistent(g2.Snapshot(), s2) {
		t.Fatal("single non-universal DFA must yield a consistent sample")
	}
}

func TestLemma32RandomAgreement(t *testing.T) {
	// Property: consistency of the gadget always agrees with
	// non-universality of the union.
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 40; i++ {
		a := alphabet.NewSorted("a", "b")
		n := 1 + rng.Intn(3)
		ds := make([]*automata.DFA, n)
		for j := range ds {
			ds[j] = automata.RandomDFA(rng, 4, 2, 0.8)
		}
		universal, _ := automata.UnionUniversal(ds)
		g, s := FromDFAUnion(a, ds)
		if got := core.Consistent(g.Snapshot(), s); got != !universal {
			t.Fatalf("iter %d: consistent=%v, universal=%v", i, got, universal)
		}
	}
}

func TestFormulaEvalAndSatisfiable(t *testing.T) {
	// (x1 ∨ ¬x2 ∨ x3) ∧ (¬x1 ∨ x3 ∨ ¬x4) — the paper's φ0 — satisfiable.
	phi := Formula{
		NumVars: 4,
		Clauses: []Clause{
			{Literal{1, false}, Literal{2, true}, Literal{3, false}},
			{Literal{1, true}, Literal{3, false}, Literal{4, true}},
		},
	}
	if !phi.Satisfiable() {
		t.Fatal("φ0 should be satisfiable")
	}
	// x ∧ ¬x (padded to 3 literals) is unsatisfiable.
	contradiction := Formula{
		NumVars: 1,
		Clauses: []Clause{
			{Literal{1, false}, Literal{1, false}, Literal{1, false}},
			{Literal{1, true}, Literal{1, true}, Literal{1, true}},
		},
	}
	if contradiction.Satisfiable() {
		t.Fatal("x ∧ ¬x should be unsatisfiable")
	}
}

func TestLemma33ReductionPaperFormula(t *testing.T) {
	phi := Formula{
		NumVars: 4,
		Clauses: []Clause{
			{Literal{1, false}, Literal{2, true}, Literal{3, false}},
			{Literal{1, true}, Literal{3, false}, Literal{4, true}},
		},
	}
	g, s, _ := From3SAT(phi)
	if got := HasDistinctPathQuery(g.Snapshot(), s); got != true {
		t.Fatal("satisfiable φ0 must admit a distinct-symbols path query")
	}
}

func TestLemma33ReductionUnsat(t *testing.T) {
	contradiction := Formula{
		NumVars: 1,
		Clauses: []Clause{
			{Literal{1, false}, Literal{1, false}, Literal{1, false}},
			{Literal{1, true}, Literal{1, true}, Literal{1, true}},
		},
	}
	g, s, _ := From3SAT(contradiction)
	if HasDistinctPathQuery(g.Snapshot(), s) {
		t.Fatal("unsatisfiable formula must admit no distinct-symbols path query")
	}
}

func TestLemma33RandomAgreement(t *testing.T) {
	// Property: the gadget's distinct-path-query existence always agrees
	// with satisfiability, on random small formulas.
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 30; i++ {
		numVars := 2 + rng.Intn(3)
		numClauses := 1 + rng.Intn(3)
		f := Formula{NumVars: numVars}
		for c := 0; c < numClauses; c++ {
			var cl Clause
			for j := 0; j < 3; j++ {
				cl[j] = Literal{Var: 1 + rng.Intn(numVars), Negated: rng.Intn(2) == 1}
			}
			f.Clauses = append(f.Clauses, cl)
		}
		g, s, _ := From3SAT(f)
		if got, want := HasDistinctPathQuery(g.Snapshot(), s), f.Satisfiable(); got != want {
			t.Fatalf("iter %d: gadget=%v, sat=%v (formula %+v)", i, got, want, f)
		}
	}
}
