// Quickstart: the paper's Section 1 scenario (Figure 1). A commuter wants
// "neighborhoods from which I can reach a cinema by public transportation"
// but cannot write the regular expression (tram+bus)*·cinema. She labels
// N2 and N6 as wanted and N5 as unwanted; the learner infers a query that
// behaves exactly like her intended one.
package main

import (
	"fmt"
	"log"

	"pathquery"
)

func main() {
	g := pathquery.NewGraph(nil)
	for _, e := range [][3]string{
		{"N1", "tram", "N4"},
		{"N2", "bus", "N1"},
		{"N2", "bus", "N3"},
		{"N4", "cinema", "C1"},
		{"N4", "tram", "N1"},
		{"N6", "cinema", "C2"},
		{"N6", "bus", "N5"},
		{"N5", "restaurant", "R1"},
		{"N5", "tram", "N3"},
		{"N3", "restaurant", "R2"},
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

	goal, err := pathquery.ParseQuery(g.Alphabet(), "(tram+bus)*·cinema")
	if err != nil {
		log.Fatal(err)
	}

	// Round 1 — the paper's initial feedback: she wants N2 and N6, not N5.
	sample := pathquery.Sample{
		Pos: []pathquery.NodeID{node("N2"), node("N6")},
		Neg: []pathquery.NodeID{node("N5")},
	}
	learned, err := pathquery.Learn(snap, sample, pathquery.Options{})
	if err != nil {
		log.Fatalf("learner abstained: %v", err)
	}
	fmt.Println("round 1 learned:", learned)
	fmt.Printf("round 1 F1 against the goal: %.2f\n",
		pathquery.Score(snap, goal, learned).F1())
	// "bus" is consistent with three labels, but misses N1 and N4 — the
	// user is not satisfied yet and labels three more nodes.

	sample.Pos = append(sample.Pos, node("N1"), node("N4"))
	sample.Neg = append(sample.Neg, node("N3"))
	learned, err = pathquery.Learn(snap, sample, pathquery.Options{})
	if err != nil {
		log.Fatalf("learner abstained: %v", err)
	}
	fmt.Println("round 2 learned:", learned)
	fmt.Println("selected neighborhoods:")
	for _, v := range learned.Evaluate(snap).Nodes() {
		fmt.Println("  ", snap.NodeName(v))
	}
	fmt.Printf("selects the same nodes as (tram+bus)*·cinema: %v\n",
		learned.EquivalentOn(snap, goal))
	fmt.Printf("round 2 F1 against the goal: %.2f\n",
		pathquery.Score(snap, goal, learned).F1())
}
