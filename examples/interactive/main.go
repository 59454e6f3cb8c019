// Interactive learning: the paper's Section 4 scenario on a synthetic
// graph. The session starts with no examples; it repeatedly proposes an
// informative node, a simulated user labels it against a hidden goal
// query, and learning repeats until the learned query selects exactly the
// same nodes as the goal (F1 = 1). Far fewer labels are needed than with
// random (static) example drawing.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pathquery"
	"pathquery/internal/datasets"
	"pathquery/internal/interactive"
)

func main() {
	// A 2000-node scale-free graph with Zipfian labels, as in Section 5.1.
	g := datasets.ScaleFree(datasets.ScaleFreeConfig{
		Nodes: 2000, Edges: 6000, Labels: 12, ZipfS: 1.0, Seed: 99,
	})
	fmt.Println("graph:", g)
	snap := g.Snapshot()

	// The user's hidden intent.
	goal, err := pathquery.ParseQuery(g.Alphabet(), "(l00+l01)·l03*·l05")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hidden goal: %v (selects %d nodes)\n", goal, goal.Evaluate(snap).Count())

	for _, strategy := range []pathquery.Strategy{interactive.KR{}, interactive.KS{}} {
		sess := pathquery.NewSession(snap, pathquery.SessionOptions{
			Strategy: strategy,
			Seed:     7,
		})
		oracle := pathquery.NewQueryOracle(snap, goal)
		res, err := sess.Run(oracle, pathquery.ExactMatch(snap, goal))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nstrategy %s: halted=%v after %d labels (%.2f%% of nodes)\n",
			strategy.Name(), res.Halted, res.Labels(), 100*res.LabelFraction(snap))
		fmt.Printf("  learned: %v\n", res.Query)
		fmt.Printf("  mean time between interactions: %v\n", res.MeanTimeBetweenInteractions())
		pos, neg := 0, 0
		for _, it := range res.Interactions {
			if it.Positive {
				pos++
			} else {
				neg++
			}
		}
		fmt.Printf("  labels: %d positive, %d negative\n", pos, neg)
	}

	// Contrast with the static protocol: how many random labels before the
	// learner nails the goal exactly?
	rng := rand.New(rand.NewSource(11))
	for _, fraction := range []float64{0.01, 0.05, 0.10, 0.25} {
		pos, neg := datasets.RandomSample(snap, goal, fraction, rng)
		learned, err := pathquery.Learn(snap, pathquery.Sample{Pos: pos, Neg: neg}, pathquery.Options{})
		f1 := 0.0
		if err == nil {
			f1 = pathquery.Score(snap, goal, learned).F1()
		}
		fmt.Printf("static %5.1f%% labels -> F1 %.3f\n", 100*fraction, f1)
	}
}
