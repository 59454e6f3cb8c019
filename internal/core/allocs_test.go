package core_test

import (
	"math/rand"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/datasets"
	"pathquery/internal/query"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestLearnDetailedAllocs bounds the allocations of one learn call in the
// regime of perfbench's learn workload: 50 labeled nodes (1%) of
// datasets.Synthetic(5000, 1) for a goal of syn's A·B*·C shape.
func TestLearnDetailedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race: sync.Pool drops items")
	}
	snap := datasets.Synthetic(5000, 1).Snapshot()
	goal := query.MustParse(snap.Alphabet(), "(l00+l01)·l02*·l03")
	pos, neg := datasets.RandomSample(snap, goal, 0.01, rand.New(rand.NewSource(3)))
	s := core.Sample{Pos: pos, Neg: neg}
	var r *core.Result
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if r, err = core.LearnDetailed(snap, s, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if r.K != 2 || r.Merges == 0 {
		t.Fatalf("learned %v at k = %d with %d merges; the check wants a merging run", r.Query, r.K, r.Merges)
	}
	if allocs > 148 {
		t.Fatalf("LearnDetailed on %d positives and %d negatives made %v allocations, want at most 148", len(pos), len(neg), allocs)
	}
}
