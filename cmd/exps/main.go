package main

import (
	"fmt"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/interactive"
)

func main() {
	for _, n := range []int{10000} {
		snap := datasets.Synthetic(n, int64(n)).Snapshot()
		qs := datasets.SynQueriesOn(snap)
		for _, nq := range qs {
			for _, strat := range []interactive.Strategy{interactive.KR{}, interactive.KS{}} {
				start := time.Now()
				sess := interactive.NewSession(snap, interactive.Options{
					Strategy: strat, Seed: 1, MaxInteractions: 600,
				})
				res, err := sess.Run(interactive.NewQueryOracle(snap, nq.Query),
					interactive.ExactMatch(snap, nq.Query))
				if err != nil {
					fmt.Println("ERR", err)
					continue
				}
				fmt.Printf("n=%d %s sel=%.3f strat=%s labels=%d (%.2f%%) halt=%v wall=%v meanT=%v\n",
					n, nq.Name, nq.Query.Evaluate(snap).Selectivity(), strat.Name(), res.Labels(),
					100*res.LabelFraction(snap), res.Halted, time.Since(start).Round(time.Millisecond),
					res.MeanTimeBetweenInteractions().Round(time.Microsecond))
			}
		}
	}
}
