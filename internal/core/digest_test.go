package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathquery/internal/core"
	"pathquery/internal/datasets"
	"pathquery/internal/query"
)

// learnerDigest is the SHA-256 of learnerDigestLines: the learned query's
// canonical key and k (or "abstain") for every task of the fixed set below.
// Any change to what the learner outputs on these tasks changes it; a
// change that means to alter the learner's outputs re-records it and says
// why.
const learnerDigest = "d7d282d6897f66cfcc7f5ca07b8ba898df0b7b47fd044681a632cfb98ea55c9e"

// learnerDigestLines runs the fixed task set: datasets.Synthetic(1000, seed)
// for three seeds, four goal expressions over the graph's labels, and
// datasets.RandomSample at five labeled fractions with four trials each,
// learned with the default options. It returns one line per task:
// "seed goal fraction trial CacheKey k", or "... abstain".
func learnerDigestLines(t *testing.T) []string {
	t.Helper()
	goals := []string{"l00·l01", "(l00+l02)·l01*·l03", "l01*·l04", "l00·l00·l02"}
	fractions := []float64{0.005, 0.01, 0.02, 0.05, 0.1}
	const trials = 4
	var lines []string
	for _, seed := range []int64{1, 7, 99} {
		snap := datasets.Synthetic(1000, seed).Snapshot()
		for gi, expr := range goals {
			goal, err := query.Parse(snap.Alphabet(), expr)
			if err != nil {
				t.Fatalf("parse %q: %v", expr, err)
			}
			for _, f := range fractions {
				for trial := 0; trial < trials; trial++ {
					rng := rand.New(rand.NewSource(seed*1_000_003 + int64(gi)*10_007 + int64(f*1000)*101 + int64(trial)))
					pos, neg := datasets.RandomSample(snap, goal, f, rng)
					prefix := fmt.Sprintf("%d %d %g %d", seed, gi, f, trial)
					r, err := core.LearnDetailed(snap, core.Sample{Pos: pos, Neg: neg}, core.Options{})
					switch {
					case errors.Is(err, core.ErrAbstain):
						lines = append(lines, prefix+" abstain")
					case err != nil:
						t.Fatalf("%s: %v", prefix, err)
					default:
						lines = append(lines, fmt.Sprintf("%s %s %d", prefix, r.Query.CacheKey(), r.K))
					}
				}
			}
		}
	}
	return lines
}

// TestLearnerOutputDigest pins the learner's outputs on a fixed task set, so
// a refactor of the learner or of its callers that changes any learned
// query, any k or any abstention fails here.
func TestLearnerOutputDigest(t *testing.T) {
	lines := learnerDigestLines(t)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if got := hex.EncodeToString(sum[:]); got != learnerDigest {
		abstain := 0
		for _, l := range lines {
			if strings.HasSuffix(l, " abstain") {
				abstain++
			}
		}
		t.Fatalf("learner output digest = %s, want %s (%d tasks, %d abstained)",
			got, learnerDigest, len(lines), abstain)
	}
}
