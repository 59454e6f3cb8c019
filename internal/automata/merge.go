package automata

// Merger is the mutable quotient automaton used during RPNI-style
// generalization (lines 4-5 of Algorithm 1: A := A_{s'→s} while consistent).
// It starts as a PTA and merges states under a union-find, folding
// recursively to restore determinism after each merge, exactly as in
// classic RPNI (Oncina & García).
//
// Merges are speculative: every write to the union-find, the marks and the
// transition table since the last commit is recorded on an undo trail, so a
// merge that fails its fold or its consistency check is rolled back in
// place.
//
// The current quotient can be read in place, without materializing it:
// its start is Find(0), and representative s accepts when Accepting(s)
// and steps on sym to Find(Row(s)[sym]) (absent when None). A DFA is
// built only on request (DFA).
type Merger struct {
	NumSyms int
	parent  []int32
	marks   []Mark
	// delta is the flat transition table: delta[s·NumSyms+sym]. Only the
	// rows of representatives are current.
	delta []int32
	// trail holds the old value of every slot written since the last
	// commit, oldest first.
	trail []undo
}

// undo is one trail entry: slot i of parent, marks or delta held old.
type undo struct {
	kind undoKind
	i    int32
	old  int32
}

type undoKind uint8

const (
	undoParent undoKind = iota
	undoMark
	undoDelta
)

// NewMerger initializes a merger from a PTA.
func NewMerger(p *PTA) *Merger {
	n, k := p.NumStates(), p.NumSyms
	m := &Merger{
		NumSyms: k,
		parent:  make([]int32, n),
		marks:   append([]Mark(nil), p.Marks...),
		delta:   make([]int32, n*k),
	}
	for s := 0; s < n; s++ {
		m.parent[s] = int32(s)
		copy(m.delta[s*k:(s+1)*k], p.Delta[s])
	}
	return m
}

// NumStates returns the number of PTA states the merger partitions; state
// ids, representatives included, lie in [0, NumStates).
func (m *Merger) NumStates() int { return len(m.parent) }

// Row returns representative s's transition row: Row(s)[sym] is a state of
// the class s steps to on sym (resolve it with Find), or None. The row
// aliases the merger and is current until the next merge or rollback.
func (m *Merger) Row(s int32) []int32 {
	k := m.NumSyms
	return m.delta[int(s)*k : (int(s)+1)*k : (int(s)+1)*k]
}

// Accepting reports whether representative s's class holds an accepting
// PTA state.
func (m *Merger) Accepting(s int32) bool { return m.marks[s] == Accepting }

func (m *Merger) setParent(s, v int32) {
	m.trail = append(m.trail, undo{undoParent, s, m.parent[s]})
	m.parent[s] = v
}

func (m *Merger) setMark(s int32, v Mark) {
	m.trail = append(m.trail, undo{undoMark, s, int32(m.marks[s])})
	m.marks[s] = v
}

func (m *Merger) setDelta(i int, v int32) {
	m.trail = append(m.trail, undo{undoDelta, int32(i), m.delta[i]})
	m.delta[i] = v
}

// rollback undoes every write since the last commit, newest first.
func (m *Merger) rollback() {
	for j := len(m.trail) - 1; j >= 0; j-- {
		u := m.trail[j]
		switch u.kind {
		case undoParent:
			m.parent[u.i] = u.old
		case undoMark:
			m.marks[u.i] = Mark(u.old)
		case undoDelta:
			m.delta[u.i] = u.old
		}
	}
	m.trail = m.trail[:0]
}

// commit makes every recorded write permanent.
func (m *Merger) commit() { m.trail = m.trail[:0] }

// Find returns the representative of s. Its path-halving writes go on the
// trail like any other: a shortcut that outlived a rolled-back union could
// jump past it and corrupt the partition.
func (m *Merger) Find(s int32) int32 {
	for m.parent[s] != s {
		if gp := m.parent[m.parent[s]]; gp != m.parent[s] {
			m.setParent(s, gp) // path halving
		}
		s = m.parent[s]
	}
	return s
}

// Merge merges state b into state a and folds recursively to restore
// determinism. It reports false when folding would merge an Accepting state
// with a Rejecting one (the classic RPNI conflict); the merger is then
// rolled back to its state before the call.
func (m *Merger) Merge(a, b int32) bool {
	m.commit()
	ok := m.fold(a, b)
	if !ok {
		m.rollback()
	}
	m.commit()
	return ok
}

// fold is Merge without the rollback: on a conflict the writes made so far
// stay on the trail for the caller to undo.
func (m *Merger) fold(a, b int32) bool {
	a, b = m.Find(a), m.Find(b)
	if a == b {
		return true
	}
	// Union marks: Accepting + Rejecting conflict.
	switch {
	case m.marks[a] == Neutral:
		if m.marks[b] != Neutral {
			m.setMark(a, m.marks[b])
		}
	case m.marks[b] == Neutral || m.marks[a] == m.marks[b]:
		// keep m.marks[a]
	default:
		return false
	}
	m.setParent(b, a)
	// Fold successors: b's transitions move onto a's current representative;
	// collisions merge recursively. a itself may be absorbed by a recursive
	// merge (e.g. when b's successor is a), so the representative is
	// re-resolved on every iteration. b's row is never written again after
	// absorption, so reading it across iterations is safe.
	k := m.NumSyms
	for sym := 0; sym < k; sym++ {
		tb := m.delta[int(b)*k+sym]
		if tb == None {
			continue
		}
		i := int(m.Find(a))*k + sym
		ta := m.delta[i]
		if ta == None {
			m.setDelta(i, tb)
			continue
		}
		if !m.fold(ta, tb) {
			return false
		}
	}
	return true
}

// DFA materializes the current quotient as a freshly allocated partial DFA
// with canonical reachable-state numbering: BFS from the root taking
// symbols in increasing order. Rejecting marks are dropped (they only
// guard folding); Accepting representatives become final states.
func (m *Merger) DFA() *DFA {
	number := make([]int32, len(m.parent))
	for s := range number {
		number[s] = None
	}
	root := m.Find(0)
	number[root] = 0
	order := append(make([]int32, 0, len(m.parent)), root)
	for i := 0; i < len(order); i++ {
		for _, t := range m.Row(order[i]) {
			if t == None {
				continue
			}
			if t = m.Find(t); number[t] == None {
				number[t] = int32(len(order))
				order = append(order, t)
			}
		}
	}
	d := NewDFA(len(order), m.NumSyms)
	for i, s := range order {
		d.Final[i] = m.Accepting(s)
		for sym, t := range m.Row(s) {
			if t != None {
				d.Delta[i][sym] = number[m.Find(t)]
			}
		}
	}
	return d
}

// Representatives returns the live representative states in increasing
// original-id order, which is the canonical access-word order for PTAs.
func (m *Merger) Representatives() []int32 {
	var out []int32
	for s := int32(0); int(s) < len(m.parent); s++ {
		if m.Find(s) == s {
			out = append(out, s)
		}
	}
	return out
}

// Generalize runs the RPNI red-blue merging loop: states are considered in
// canonical order (of PTA access words); each "blue" state is merged into
// the smallest compatible "red" state, where compatibility means the fold
// succeeds and consistent() returns true. If no red state is compatible
// the blue state is promoted to red. The consistent callback reads the
// candidate quotient through the merger itself — Find(0), Row, Accepting,
// or DFA when it needs one materialized — and must not merge. Pass nil to
// rely on fold conflicts alone (classic RPNI with word negatives).
//
// Each candidate merge is made in place and rolled back from the undo
// trail when its fold conflicts or the callback rejects it, so a candidate
// costs only the writes it makes and the callback's reads.
//
// This implements both RPNI's generalization (with negatives in the PTA) and
// lines 4-5 of the paper's Algorithm 1 (with consistency checked against the
// graph's negative path languages).
func (m *Merger) Generalize(consistent func() bool) {
	red := []int32{m.Find(0)}
	inRed := make([]bool, len(m.parent))
	inRed[red[0]] = true

	for {
		blue := m.smallestBlue(red, inRed)
		if blue == None {
			return
		}
		m.commit()
		merged := false
		for _, r := range red {
			if m.fold(r, blue) && (consistent == nil || consistent()) {
				merged = true
				break
			}
			m.rollback()
		}
		m.commit()
		if !merged {
			red = append(red, blue)
		}
		// Representatives of red may have moved: refresh and deduplicate.
		for _, r := range red {
			inRed[r] = false
		}
		fresh := red[:0]
		for _, r := range red {
			r = m.Find(r)
			if !inRed[r] {
				inRed[r] = true
				fresh = append(fresh, r)
			}
		}
		red = fresh
	}
}

// smallestBlue returns the smallest-id representative reachable in one step
// from a red state that is not itself red, or None.
func (m *Merger) smallestBlue(red []int32, inRed []bool) int32 {
	best := None
	k := m.NumSyms
	for _, r := range red {
		r = m.Find(r)
		for sym := 0; sym < k; sym++ {
			t := m.delta[int(r)*k+sym]
			if t == None {
				continue
			}
			t = m.Find(t)
			if inRed[t] {
				continue
			}
			if best == None || t < best {
				best = t
			}
		}
	}
	return best
}
