package pathquery_test

import (
	"errors"
	"fmt"

	"pathquery"
)

// The paper's Figure 1 scenario: learn "from which neighborhoods can I
// reach a cinema by public transportation" from three labeled nodes.
func Example() {
	g := pathquery.NewGraph(nil)
	for _, e := range [][3]string{
		{"N1", "tram", "N4"},
		{"N2", "bus", "N1"},
		{"N4", "cinema", "C1"},
		{"N6", "cinema", "C2"},
		{"N5", "restaurant", "R1"},
	} {
		g.AddEdgeByName(e[0], e[1], e[2])
	}
	n2, _ := g.NodeByName("N2")
	n6, _ := g.NodeByName("N6")
	n5, _ := g.NodeByName("N5")

	// Every read runs on an immutable epoch snapshot of the graph.
	snap := g.Snapshot()
	q, err := pathquery.Learn(snap, pathquery.Sample{
		Pos: []pathquery.NodeID{n2, n6},
		Neg: []pathquery.NodeID{n5},
	}, pathquery.Options{})
	if err != nil {
		fmt.Println("abstained:", err)
		return
	}
	for _, v := range q.Evaluate(snap).Nodes() {
		fmt.Println(snap.NodeName(v))
	}
	// The learned query (bus + cinema here — more labels would refine it
	// towards (tram+bus)*·cinema) selects the positives and N4.
	// Output:
	// N4
	// N2
	// N6
}

// Evaluating a hand-written query under monadic semantics.
func ExampleQuery_selectNodes() {
	g := pathquery.NewGraph(nil)
	g.AddEdgeByName("start", "a", "mid")
	g.AddEdgeByName("mid", "b", "end")

	q, _ := pathquery.ParseQuery(g.Alphabet(), "a·b")
	snap := g.Snapshot()
	for _, v := range q.Evaluate(snap).Nodes() {
		fmt.Println(snap.NodeName(v))
	}
	// Output:
	// start
}

// The learner abstains when the examples are contradictory — here every
// path of the positive node is covered by the negative one.
func ExampleLearn_abstain() {
	g := pathquery.NewGraph(nil)
	g.AddEdgeByName("pos", "a", "pos")
	g.AddEdgeByName("neg", "a", "neg")
	pos, _ := g.NodeByName("pos")
	neg, _ := g.NodeByName("neg")

	_, err := pathquery.Learn(g.Snapshot(), pathquery.Sample{
		Pos: []pathquery.NodeID{pos},
		Neg: []pathquery.NodeID{neg},
	}, pathquery.Options{})
	fmt.Println(errors.Is(err, pathquery.ErrAbstain))
	// Output:
	// true
}
