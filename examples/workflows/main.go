// Workflow mining: the paper's Section 1 biology scenario (Figure 2). A
// biologist wants interrelated scientific workflows matching
//
//	ProteinPurification · ProteinSeparation* · MassSpectrometry
//
// but labels workflow entry points as positive/negative examples instead
// of writing the pattern. Workflows are module sequences; the paper
// represents module names on edges.
package main

import (
	"fmt"
	"log"

	"pathquery"
)

// workflow encodes one chain of processing modules as labeled edges
// between anonymous stage nodes.
type workflow struct {
	name    string
	modules []string
}

func main() {
	g := pathquery.NewGraph(nil)
	flows := []workflow{
		{"wf1", []string{"ProteinPurification", "MassSpectrometry"}},
		{"wf2", []string{"ProteinPurification", "ProteinSeparation", "MassSpectrometry"}},
		{"wf3", []string{"ProteinPurification", "ProteinSeparation", "ProteinSeparation", "MassSpectrometry"}},
		{"wf4", []string{"SampleCollection", "ProteinPurification"}},
		{"wf5", []string{"ProteinPurification", "ProteinSeparation", "GelImaging"}},
		{"wf6", []string{"RNAExtraction", "Sequencing", "MassSpectrometry"}},
	}
	for _, wf := range flows {
		prev := wf.name
		for i, m := range wf.modules {
			next := fmt.Sprintf("%s_s%d", wf.name, i+1)
			g.AddEdgeByName(prev, m, next)
			prev = next
		}
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

	// The biologist marks the matching workflows positively, the
	// non-matching ones negatively — and also two mid-workflow stages,
	// since a pipeline resumed after purification does not count.
	sample := pathquery.Sample{
		Pos: []pathquery.NodeID{node("wf1"), node("wf2"), node("wf3")},
		Neg: []pathquery.NodeID{
			node("wf4"), node("wf5"), node("wf6"),
			node("wf2_s1"), node("wf3_s2"),
		},
	}
	res, err := pathquery.LearnDetailed(snap, sample, pathquery.Options{})
	if err != nil {
		log.Fatalf("learner abstained: %v", err)
	}
	fmt.Println("learned pattern:", res.Query)
	fmt.Println("SCP bound k used:", res.K)

	fmt.Println("workflows matching the learned pattern:")
	for _, v := range res.Query.Evaluate(snap).Nodes() {
		name := snap.NodeName(v)
		if len(name) > 3 && name[3] == '_' {
			continue // internal stage nodes
		}
		fmt.Println("  ", name)
	}

	goal, err := pathquery.ParseQuery(g.Alphabet(),
		"ProteinPurification·ProteinSeparation*·MassSpectrometry")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equivalent to the intended pattern on these workflows: %v\n",
		res.Query.EquivalentOn(snap, goal))
}
