package automata

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"pathquery/internal/alphabet"
	"pathquery/internal/words"
)

func wordsOf(a *alphabet.Alphabet, ss ...string) []words.Word {
	out := make([]words.Word, len(ss))
	for i, s := range ss {
		out[i] = wordOf(a, s)
	}
	return out
}

func TestBuildPTAStatesInCanonicalOrder(t *testing.T) {
	a := abc()
	p := BuildPTA(a.Size(), wordsOf(a, "abc", "c"), nil)
	// States are prefixes of {abc, c} in canonical order:
	// ε, a, c, ab, abc.
	want := []string{"ε", "a", "c", "a·b", "a·b·c"}
	if p.NumStates() != len(want) {
		t.Fatalf("PTA has %d states, want %d", p.NumStates(), len(want))
	}
	for i, w := range want {
		if got := words.String(p.Access[i], a); got != w {
			t.Fatalf("state %d access = %q, want %q", i, got, w)
		}
	}
}

// refBuildPTA is the string-keyed construction BuildPTA replaced: every
// prefix of every word, sorted into canonical order and deduplicated,
// interned through a words.Key map. It is the reference BuildPTA must
// match state for state.
func refBuildPTA(numSyms int, pos, neg []words.Word) *PTA {
	var all []words.Word
	for _, w := range append(append([]words.Word{}, pos...), neg...) {
		all = append(all, words.Prefixes(w)...)
	}
	all = words.Dedup(all)

	p := &PTA{NumSyms: numSyms}
	ids := make(map[string]int32, len(all))
	for _, w := range all {
		id := int32(len(p.Marks))
		ids[words.Key(w)] = id
		p.Marks = append(p.Marks, Neutral)
		row := make([]int32, numSyms)
		for j := range row {
			row[j] = None
		}
		p.Delta = append(p.Delta, row)
		p.Access = append(p.Access, words.Clone(w))
		if len(w) > 0 {
			parent := ids[words.Key(w[:len(w)-1])]
			p.Delta[parent][w[len(w)-1]] = id
		}
	}
	for _, w := range pos {
		p.Marks[ids[words.Key(w)]] = Accepting
	}
	for _, w := range neg {
		id := ids[words.Key(w)]
		if p.Marks[id] == Accepting {
			panic("automata: word is both positive and negative in PTA")
		}
		p.Marks[id] = Rejecting
	}
	return p
}

// TestBuildPTAMatchesReference compares BuildPTA with refBuildPTA on
// random positive and negative word sets with ε, duplicates, and words
// that are prefixes of others: the same marks, transitions and access
// words, and the same panic on a word that is both.
func TestBuildPTAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randomWord := func(numSyms int) words.Word {
		w := make(words.Word, rng.Intn(5))
		for i := range w {
			w[i] = alphabet.Symbol(rng.Intn(numSyms))
		}
		return w
	}
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	for iter := 0; iter < 500; iter++ {
		numSyms := 1 + rng.Intn(4)
		var pos, neg []words.Word
		for n := rng.Intn(12); n >= 0; n-- {
			w := randomWord(numSyms)
			switch r := rng.Intn(6); {
			case r == 0 && len(pos) > 0:
				w = pos[rng.Intn(len(pos))] // duplicate
			case r == 1 && len(pos) > 0:
				src := pos[rng.Intn(len(pos))]
				w = src[:rng.Intn(len(src)+1)] // a prefix of another word
			}
			if rng.Intn(4) == 0 {
				neg = append(neg, w)
			} else {
				pos = append(pos, w)
			}
		}
		var got, want *PTA
		gotPanic := panics(func() { got = BuildPTA(numSyms, pos, neg) })
		wantPanic := panics(func() { want = refBuildPTA(numSyms, pos, neg) })
		if gotPanic != wantPanic {
			t.Fatalf("iter %d: BuildPTA panicked %v, reference %v", iter, gotPanic, wantPanic)
		}
		if gotPanic {
			continue
		}
		if !slices.Equal(got.Marks, want.Marks) {
			t.Fatalf("iter %d: marks %v, reference %v", iter, got.Marks, want.Marks)
		}
		if !slices.EqualFunc(got.Delta, want.Delta, slices.Equal[[]int32]) {
			t.Fatalf("iter %d: delta %v, reference %v", iter, got.Delta, want.Delta)
		}
		if !slices.EqualFunc(got.Access, want.Access, words.Equal) {
			t.Fatalf("iter %d: access %v, reference %v", iter, got.Access, want.Access)
		}
	}
}

func TestPTAAcceptsExactlyPositives(t *testing.T) {
	a := abc()
	pos := wordsOf(a, "abc", "c", "ab")
	p := BuildPTA(a.Size(), pos, nil)
	d := p.DFA()
	for _, w := range pos {
		if !d.Accepts(w) {
			t.Fatalf("PTA rejects positive %v", words.String(w, a))
		}
	}
	for _, w := range allWords(a.Size(), 4) {
		inPos := false
		for _, p := range pos {
			if words.Equal(p, w) {
				inPos = true
			}
		}
		if d.Accepts(w) != inPos {
			t.Fatalf("PTA acceptance of %v = %v", words.String(w, a), !inPos)
		}
	}
}

func TestPTANegativeMarks(t *testing.T) {
	a := abc()
	p := BuildPTA(a.Size(), wordsOf(a, "ab"), wordsOf(a, "a"))
	var accepting, rejecting int
	for _, m := range p.Marks {
		switch m {
		case Accepting:
			accepting++
		case Rejecting:
			rejecting++
		}
	}
	if accepting != 1 || rejecting != 1 {
		t.Fatalf("marks: %d accepting, %d rejecting", accepting, rejecting)
	}
}

func TestPTAPanicsOnContradiction(t *testing.T) {
	a := abc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for word both + and -")
		}
	}()
	BuildPTA(a.Size(), wordsOf(a, "ab"), wordsOf(a, "ab"))
}

func TestMergerFoldConflict(t *testing.T) {
	a := abc()
	// PTA with ε rejecting and "a" accepting: merging them must fail, and
	// the failed fold must leave the merger as it was.
	p := BuildPTA(a.Size(), wordsOf(a, "a"), []words.Word{words.Epsilon})
	m := NewMerger(p)
	reps, d := m.Representatives(), m.DFA()
	if m.Merge(0, 1) {
		t.Fatal("merging accepting into rejecting should conflict")
	}
	if got := m.Representatives(); !slices.Equal(got, reps) {
		t.Fatalf("representatives after conflict = %v, want %v", got, reps)
	}
	if got := m.DFA(); !got.Equal(d) {
		t.Fatalf("quotient after conflict = %v, want %v", got, d)
	}
}

func TestMergerSelfLoopFold(t *testing.T) {
	// Merging a state with its own successor creates a self loop and the
	// fold must terminate.
	a := abc()
	p := BuildPTA(a.Size(), wordsOf(a, "aaa"), nil)
	m := NewMerger(p)
	if !m.Merge(0, 1) {
		t.Fatal("merge failed")
	}
	d := m.DFA()
	// Language after merging ε-state with a-state: a* closure of aaa's
	// acceptance — at minimum the original word must survive.
	if !d.Accepts(wordOf(a, "aaa")) {
		t.Fatal("merge lost the positive word")
	}
	if d.NumStates() >= p.NumStates() {
		t.Fatal("merge did not shrink the automaton")
	}
}

func TestGeneralizeLearnsAStarBFromCharacteristicWords(t *testing.T) {
	// Classic RPNI sanity check: target a*b over {a,b}. The sample is the
	// characteristic set of the *complete* canonical DFA (q0, q1, sink):
	// P+ covers the kernel completions, P− distinguishes every kernel word
	// from every shortest-prefix with a different residual — including the
	// sink class, whose merges with q0/q1 must be blocked.
	a := alphabet.NewSorted("a", "b")
	pos := wordsOf(a, "b", "ab")
	neg := append([]words.Word{words.Epsilon},
		wordsOf(a, "a", "ba", "bb", "baa", "bab", "bbb", "baab", "babb")...)
	p := BuildPTA(a.Size(), pos, neg)
	m := NewMerger(p)
	m.Generalize(nil)
	got := Minimize(m.DFA())
	want := compile(t, a, "a*·b")
	if !got.Equal(want) {
		t.Fatalf("RPNI learned %v, want a*·b (%v)", got, want)
	}
}

func TestGeneralizeConsistencyCallbackBlocksMerges(t *testing.T) {
	a := abc()
	pos := wordsOf(a, "abc", "c")
	p := BuildPTA(a.Size(), pos, nil)
	m := NewMerger(p)
	// Callback rejects everything: no merges happen, language unchanged.
	m.Generalize(func() bool { return false })
	d := Minimize(m.DFA())
	if !Equivalent(d, Minimize(p.DFA())) {
		t.Fatal("blocked generalization still changed the language")
	}
}

func TestGeneralizeConsistentWithSampleProperty(t *testing.T) {
	// Property: for random samples, RPNI's output accepts every positive
	// and rejects every negative.
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		// Draw a random target and sample words labeled by it.
		target := RandomNonEmptyDFA(rng, 5, 2, 0.8)
		var pos, neg []words.Word
		for _, w := range allWords(2, 5) {
			if rng.Intn(3) != 0 {
				continue
			}
			if target.Accepts(w) {
				pos = append(pos, w)
			} else {
				neg = append(neg, w)
			}
		}
		if len(pos) == 0 {
			continue
		}
		p := BuildPTA(2, pos, neg)
		m := NewMerger(p)
		m.Generalize(nil)
		d := m.DFA()
		for _, w := range pos {
			if !d.Accepts(w) {
				t.Fatalf("iter %d: positive %v rejected", iter, w)
			}
		}
		for _, w := range neg {
			if d.Accepts(w) {
				t.Fatalf("iter %d: negative %v accepted", iter, w)
			}
		}
	}
}

func TestMergerRepresentatives(t *testing.T) {
	a := abc()
	p := BuildPTA(a.Size(), wordsOf(a, "ab", "c"), nil)
	m := NewMerger(p)
	if got := len(m.Representatives()); got != p.NumStates() {
		t.Fatalf("fresh merger has %d representatives, want %d", got, p.NumStates())
	}
	m.Merge(0, 1)
	if got := len(m.Representatives()); got >= p.NumStates() {
		t.Fatalf("after merge: %d representatives", got)
	}
}

func TestMergerRollback(t *testing.T) {
	a := abc()
	// "c" is rejecting, so some folds conflict before the predicate runs.
	p := BuildPTA(a.Size(), wordsOf(a, "ab", "ac", "bc", "cab"), wordsOf(a, "c"))
	m := NewMerger(p)
	reps, d := m.Representatives(), m.DFA()
	calls := 0
	m.Generalize(func() bool { calls++; return false })
	if calls == 0 {
		t.Fatal("the predicate never saw a candidate")
	}
	if got := m.Representatives(); !slices.Equal(got, reps) {
		t.Fatalf("representatives after %d rejected merges = %v, want %v", calls, got, reps)
	}
	if got := m.DFA(); !got.Equal(d) {
		t.Fatalf("quotient after %d rejected merges = %v, want %v", calls, got, d)
	}

	// Accept only the first candidate: every later rejected merge must
	// roll back to the committed one.
	m = NewMerger(p)
	var first *DFA
	m.Generalize(func() bool {
		if first == nil {
			first = m.DFA()
			return true
		}
		return false
	})
	if first == nil || !m.DFA().Equal(first) {
		t.Fatalf("quotient = %v, want the one accepted candidate %v", m.DFA(), first)
	}
}

// TestGeneralizeMatchesCloneReference runs the in-place merger and the
// clone-per-candidate reference on random PTAs (with rejecting marks, so
// folds conflict) under a random but deterministic consistency predicate:
// a hash of the candidate language's canonical key. Both must see the same
// candidates and end on the same quotient.
func TestGeneralizeMatchesCloneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		p := randomPTA(rng)
		salt := rng.Uint32()
		var got, want []string
		predicate := func(seq *[]string) func(*DFA) bool {
			return func(c *DFA) bool {
				*seq = append(*seq, c.CanonicalKey())
				h := fnv.New32a()
				h.Write([]byte(Minimize(c).CanonicalKey()))
				return (h.Sum32()^salt)%3 != 0
			}
		}
		m := NewMerger(p)
		check := predicate(&got)
		m.Generalize(func() bool { return check(m.DFA()) })
		ref := newRefMerger(p)
		ref.generalize(predicate(&want))
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: candidates %v, reference %v", iter, got, want)
		}
		if d, rd := m.DFA(), ref.dfa(); !d.Equal(rd) {
			t.Fatalf("iter %d: quotient %v, reference %v", iter, d, rd)
		}
		if reps, rr := m.Representatives(), ref.representatives(); !slices.Equal(reps, rr) {
			t.Fatalf("iter %d: representatives %v, reference %v", iter, reps, rr)
		}
	}
}

// TestMergeSequenceMatchesCloneReference applies random merges of
// arbitrary state pairs, not just red-blue ones, so a fold can re-parent a
// class that already has members and then conflict. Each Merge must leave
// the quotient the reference reaches by merging on a copy and keeping it
// only when the fold succeeds; a path-halving shortcut that escaped the
// undo trail would survive the rollback and show here.
func TestMergeSequenceMatchesCloneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 500; iter++ {
		p := randomPTA(rng)
		m, ref := NewMerger(p), newRefMerger(p)
		for step := 0; step < 8; step++ {
			a, b := int32(rng.Intn(p.NumStates())), int32(rng.Intn(p.NumStates()))
			ok := m.Merge(a, b)
			cand := ref.clone()
			if refOK := cand.merge(a, b); ok != refOK {
				t.Fatalf("iter %d step %d: Merge(%d, %d) = %v, reference %v", iter, step, a, b, ok, refOK)
			} else if ok {
				*ref = *cand
			}
			if d, rd := m.DFA(), ref.dfa(); !d.Equal(rd) {
				t.Fatalf("iter %d step %d: Merge(%d, %d) = %v: quotient %v, reference %v",
					iter, step, a, b, ok, d, rd)
			}
		}
	}
}

// randomPTA builds the PTA of up to ten distinct random words of length
// at most five over one to three symbols, about a third of them negative.
func randomPTA(rng *rand.Rand) *PTA {
	numSyms := 1 + rng.Intn(3)
	var pos, neg []words.Word
	seen := map[string]bool{}
	for n := 1 + rng.Intn(10); n > 0; n-- {
		w := make(words.Word, rng.Intn(6))
		for i := range w {
			w[i] = alphabet.Symbol(rng.Intn(numSyms))
		}
		if seen[words.Key(w)] {
			continue
		}
		seen[words.Key(w)] = true
		if rng.Intn(3) == 0 {
			neg = append(neg, w)
		} else {
			pos = append(pos, w)
		}
	}
	return BuildPTA(numSyms, pos, neg)
}

// refMerger is the clone-per-candidate merger: every candidate merge runs
// on a deep copy, which is committed or discarded whole. It is the
// reference the in-place Merger must match.
type refMerger struct {
	numSyms int
	parent  []int32
	marks   []Mark
	delta   [][]int32
}

func newRefMerger(p *PTA) *refMerger {
	m := &refMerger{numSyms: p.NumSyms, marks: append([]Mark(nil), p.Marks...)}
	for s := range p.Delta {
		m.parent = append(m.parent, int32(s))
		m.delta = append(m.delta, append([]int32(nil), p.Delta[s]...))
	}
	return m
}

func (m *refMerger) clone() *refMerger {
	c := &refMerger{
		numSyms: m.numSyms,
		parent:  append([]int32(nil), m.parent...),
		marks:   append([]Mark(nil), m.marks...),
	}
	for _, row := range m.delta {
		c.delta = append(c.delta, append([]int32(nil), row...))
	}
	return c
}

func (m *refMerger) find(s int32) int32 {
	for m.parent[s] != s {
		m.parent[s] = m.parent[m.parent[s]]
		s = m.parent[s]
	}
	return s
}

func (m *refMerger) merge(a, b int32) bool {
	a, b = m.find(a), m.find(b)
	if a == b {
		return true
	}
	switch {
	case m.marks[a] == Neutral:
		m.marks[a] = m.marks[b]
	case m.marks[b] == Neutral || m.marks[a] == m.marks[b]:
	default:
		return false
	}
	m.parent[b] = a
	for sym := 0; sym < m.numSyms; sym++ {
		tb := m.delta[b][sym]
		if tb == None {
			continue
		}
		ra := m.find(a)
		ta := m.delta[ra][sym]
		if ta == None {
			m.delta[ra][sym] = tb
			continue
		}
		if !m.merge(ta, tb) {
			return false
		}
	}
	return true
}

func (m *refMerger) dfa() *DFA {
	root := m.find(0)
	number := map[int32]int32{root: 0}
	order := []int32{root}
	d := NewDFA(1, m.numSyms)
	for i := 0; i < len(order); i++ {
		s := order[i]
		d.Final[i] = m.marks[s] == Accepting
		for sym := 0; sym < m.numSyms; sym++ {
			t := m.delta[s][sym]
			if t == None {
				continue
			}
			t = m.find(t)
			id, ok := number[t]
			if !ok {
				id = d.AddState()
				number[t] = id
				order = append(order, t)
			}
			d.Delta[i][sym] = id
		}
	}
	return d
}

func (m *refMerger) representatives() []int32 {
	var out []int32
	for s := range m.parent {
		if m.find(int32(s)) == int32(s) {
			out = append(out, int32(s))
		}
	}
	return out
}

func (m *refMerger) generalize(consistent func(*DFA) bool) {
	red := []int32{m.find(0)}
	for {
		inRed := map[int32]bool{}
		for _, r := range red {
			inRed[m.find(r)] = true
		}
		blue := None
		for _, r := range red {
			for _, t := range m.delta[m.find(r)] {
				if t == None {
					continue
				}
				if t = m.find(t); !inRed[t] && (blue == None || t < blue) {
					blue = t
				}
			}
		}
		if blue == None {
			return
		}
		merged := false
		for _, r := range red {
			cand := m.clone()
			if cand.merge(r, blue) && consistent(cand.dfa()) {
				*m = *cand
				merged = true
				break
			}
		}
		if !merged {
			red = append(red, blue)
		}
		var fresh []int32
		seen := map[int32]bool{}
		for _, r := range red {
			if r = m.find(r); !seen[r] {
				seen[r] = true
				fresh = append(fresh, r)
			}
		}
		red = fresh
	}
}
