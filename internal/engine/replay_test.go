package engine

import (
	"math/rand"
	"testing"
)

func TestWeightedChooserZeroNeverFires(t *testing.T) {
	c, err := NewWeightedChooser([]float64{3, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 4)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[c.Choose(rng.Float64())]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight indices drawn: %v", counts)
	}
	// Skew ≈ requested: 3:1 within 5% relative tolerance at 200k draws.
	ratio := float64(counts[0]) / float64(counts[2])
	if ratio < 2.85 || ratio > 3.15 {
		t.Fatalf("weight ratio %.3f, want ≈ 3 (counts %v)", ratio, counts)
	}
	// Boundary draws stay in range.
	if got := c.Choose(0); got != 0 {
		t.Fatalf("choose(0) = %d, want 0", got)
	}
	if got := c.Choose(0.999999999); got != 2 {
		t.Fatalf("choose(→1) = %d, want 2", got)
	}
}

func TestWeightedChooserRejectsDegenerate(t *testing.T) {
	if _, err := NewWeightedChooser([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewWeightedChooser([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}
