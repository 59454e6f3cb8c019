package automata

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"pathquery/internal/words"
)

// minimizePinnedDigest is the SHA-256 of the canonical outputs of the
// seeded raw DFAs of TestMinimizePinned, each encoded by writeDFADigest. A
// change to Minimize that alters any canonical DFA changes it.
const minimizePinnedDigest = "e57279857c3c2e790f3988ecc90d9b487420fc5b92b44cf61ceb5cd758509cc6"

// randomRawDFA draws a raw DFA of 1–64 states over 1–20 symbols with any
// start state, a transition density in [0, 1) and a final density in
// [0, 1), redrawn until its language is non-empty. Unreachable states,
// dead states, total and partial DFAs all occur.
func randomRawDFA(rng *rand.Rand) *DFA {
	for {
		n, k := 1+rng.Intn(64), 1+rng.Intn(20)
		density, finals := rng.Float64(), rng.Float64()
		d := NewDFA(n, k)
		d.Start = int32(rng.Intn(n))
		for s := 0; s < n; s++ {
			d.Final[s] = rng.Float64() < finals
			for sym := 0; sym < k; sym++ {
				if rng.Float64() < density {
					d.Delta[s][sym] = int32(rng.Intn(n))
				}
			}
		}
		if !d.IsEmpty() {
			return d
		}
	}
}

// writeDFADigest feeds d's whole shape to h: the symbol and state counts,
// the start, every final flag and every transition slot, absent ones
// included.
func writeDFADigest(h hash.Hash, d *DFA) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.NumSyms))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.NumStates()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Start))
	for s := range d.Final {
		if d.Final[s] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, t := range d.Delta[s] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		}
	}
	h.Write(buf)
}

// checkCanonical reports the first way m fails to be the trimmed minimal
// DFA of a non-empty language: a state unreachable from the start, a state
// that reaches no final state, or (on up to 16 states) two states with the
// same language.
func checkCanonical(m *DFA) error {
	n := m.NumStates()
	reach := make([]bool, n)
	reach[m.Start] = true
	for stack := []int32{m.Start}; len(stack) > 0; {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.Delta[s] {
			if t != None && !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	for s := range n {
		if !reach[s] {
			return fmt.Errorf("state %d is unreachable", s)
		}
		if re := rerooted(m, int32(s)); re.IsEmpty() {
			return fmt.Errorf("state %d reaches no final state", s)
		}
	}
	if n > 16 {
		return nil
	}
	for p := range n {
		for q := p + 1; q < n; q++ {
			if Equivalent(rerooted(m, int32(p)), rerooted(m, int32(q))) {
				return fmt.Errorf("states %d and %d are equivalent", p, q)
			}
		}
	}
	return nil
}

// rerooted returns a copy of d starting at s.
func rerooted(d *DFA, s int32) *DFA {
	c := d.Clone()
	c.Start = s
	return c
}

// TestMinimizePinned pins Minimize's canonical outputs on 20 000 seeded
// raw DFAs with non-empty languages (randomRawDFA) by one SHA-256, and
// checks that each output keeps its input's language and is trimmed and
// minimal.
func TestMinimizePinned(t *testing.T) {
	const runs = 20000
	rng := rand.New(rand.NewSource(26))
	h := sha256.New()
	for i := range runs {
		d := randomRawDFA(rng)
		m := Minimize(d)
		if !Equivalent(d, m) {
			t.Fatalf("run %d: Minimize changed the language of %v: %v", i, d, m)
		}
		if err := checkCanonical(m); err != nil {
			t.Fatalf("run %d: Minimize(%v) = %v: %v", i, d, m, err)
		}
		writeDFADigest(h, m)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != minimizePinnedDigest {
		t.Fatalf("canonical outputs of %d raw DFAs: SHA-256 = %s, want %s", runs, got, minimizePinnedDigest)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// learnerQuotient returns the kind of automaton the learner minimizes: an
// RPNI quotient of a prefix tree acceptor over 20 symbols with its final
// states' transitions cut, as core hands query.FromDFA
// Merger.DFA().CutAtFinals().
func learnerQuotient() *DFA {
	pos := []words.Word{{0, 1}, {0, 1, 1}, {2, 0, 1}, {3}, {2, 2, 3}, {1, 0}, {0, 0, 1}}
	neg := []words.Word{{1}, {0}, {2}, {2, 1}, {0, 2}}
	m := NewMerger(BuildPTA(20, pos, neg))
	m.Generalize(nil)
	return m.DFA().CutAtFinals()
}

// TestMinimizeAllocs bounds Minimize's allocations on a learner quotient,
// whatever the automaton's size: three for the live-state pass, two for
// the work arrays and four for the output DFA.
func TestMinimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	d := learnerQuotient()
	var out *DFA
	allocs := testing.AllocsPerRun(50, func() { out = Minimize(d) })
	if !Equivalent(d, out) || out.NumStates() < 3 {
		t.Fatalf("Minimize(%v) = %v", d, out)
	}
	if allocs > 9 {
		t.Fatalf("Minimize of a %d-state quotient made %v allocations, want at most 9", d.NumStates(), allocs)
	}
}
