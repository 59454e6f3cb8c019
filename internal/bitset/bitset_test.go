package bitset_test

import (
	"math/rand"
	"testing"

	"pathquery/internal/bitset"
)

func TestBasicOps(t *testing.T) {
	b := bitset.Make(200)
	if len(b) != bitset.WordsFor(200) {
		t.Fatalf("Make(200) has %d words", len(b))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		if !b.TrySet(i) {
			t.Fatalf("TrySet(%d) on unset bit returned false", i)
		}
		if b.TrySet(i) {
			t.Fatalf("TrySet(%d) on set bit returned true", i)
		}
		if !b.Get(i) {
			t.Fatalf("bit %d unset after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatal("bits remain after ClearAll")
	}
}

func TestGrowPreservesOrReplaces(t *testing.T) {
	b := bitset.Make(64)
	b.Set(3)
	same := b.Grow(64)
	if !same.Get(3) {
		t.Fatal("Grow to same size must keep contents")
	}
	bigger := b.Grow(1000)
	if w := bitset.WordsFor(1000); len(bigger) != w+w/4 {
		t.Fatalf("Grow(1000) has %d words, want %d (a quarter to spare)", len(bigger), w+w/4)
	}
	if bigger.Count() != 0 {
		t.Fatal("grown bitset must be zeroed")
	}
	// A slightly larger n fits the spare room: the same words come back.
	bigger.Set(5)
	if !bigger.Grow(1000 + 64).Get(5) {
		t.Fatal("Grow within the spare room must keep contents")
	}
}

func TestForEachAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := bitset.Make(500)
	want := map[int]bool{}
	for k := 0; k < 100; k++ {
		i := rng.Intn(500)
		b.Set(i)
		want[i] = true
	}
	prev := -1
	n := 0
	b.ForEach(func(i int) {
		if i <= prev {
			t.Fatalf("ForEach out of order: %d after %d", i, prev)
		}
		if !want[i] {
			t.Fatalf("ForEach visited unset bit %d", i)
		}
		prev = i
		n++
	})
	if n != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", n, len(want))
	}
}
