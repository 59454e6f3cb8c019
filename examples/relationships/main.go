// Binary and n-ary semantics (Appendix B): learning queries that select
// node pairs and node tuples on a small professional network. A recruiter
// wants pairs (person, company) connected by "worked-with colleagues who
// are employed by" chains, giving pair examples instead of a regex.
package main

import (
	"fmt"
	"log"

	"pathquery"
)

func main() {
	g := pathquery.NewGraph(nil)
	for _, e := range [][3]string{
		{"ana", "colleague", "bob"},
		{"bob", "colleague", "carol"},
		{"carol", "employedBy", "acme"},
		{"bob", "employedBy", "acme"},
		{"dan", "colleague", "erin"},
		{"erin", "employedBy", "globex"},
		{"ana", "friend", "dan"},
		{"frank", "friend", "erin"},
		{"acme", "partnerOf", "globex"},
	} {
		g.AddEdgeByName(e[0], e[1], e[2])
	}
	fmt.Println("graph:", g)
	snap := g.Snapshot()

	node := func(name string) pathquery.NodeID {
		id, ok := g.NodeByName(name)
		if !ok {
			log.Fatalf("no node %q", name)
		}
		return id
	}

	// Binary semantics: the recruiter marks reachable (person, company)
	// pairs positively, friendship-only routes negatively — and one
	// self-pair, so the learned language cannot degenerate to accepting ε.
	pairs := pathquery.PairSample{
		Pos: []pathquery.Pair{
			{From: node("ana"), To: node("acme")},
			{From: node("dan"), To: node("globex")},
		},
		Neg: []pathquery.Pair{
			{From: node("ana"), To: node("dan")},
			{From: node("frank"), To: node("globex")},
			{From: node("ana"), To: node("ana")},
		},
	}
	binary, err := pathquery.LearnBinary(snap, pairs, pathquery.Options{})
	if err != nil {
		log.Fatalf("binary learner abstained: %v", err)
	}
	fmt.Println("\nlearned binary query:", binary)
	for _, from := range []string{"ana", "bob", "dan", "frank"} {
		for _, v := range binary.SelectPairsFrom(snap, node(from)) {
			fmt.Printf("  selected pair (%s, %s)\n", from, snap.NodeName(v))
		}
	}

	// N-ary semantics: triples (person, contact, company) — who can
	// introduce whom into which company.
	// Negative tuples are wrong in every hop (the paper's Algorithm 3
	// projects each negative tuple onto all positions).
	tuples := pathquery.TupleSample{
		Pos: [][]pathquery.NodeID{
			{node("ana"), node("bob"), node("acme")},
			{node("bob"), node("carol"), node("acme")},
		},
		Neg: [][]pathquery.NodeID{
			{node("frank"), node("dan"), node("acme")},
			{node("dan"), node("ana"), node("globex")},
			{node("frank"), node("dan"), node("dan")},
		},
	}
	nary, err := pathquery.LearnNary(snap, tuples, pathquery.Options{})
	if err != nil {
		log.Fatalf("n-ary learner abstained: %v", err)
	}
	fmt.Println("\nlearned 3-ary query:", nary)
	for _, tuple := range nary.SelectTuples(snap) {
		fmt.Printf("  selected triple (%s, %s, %s)\n",
			snap.NodeName(tuple[0]), snap.NodeName(tuple[1]), snap.NodeName(tuple[2]))
	}
}
