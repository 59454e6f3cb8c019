package automata

// Minimize returns the canonical DFA of L(d): complete, minimize by
// Moore-style partition refinement, trim (drop the sink and unreachable
// classes) and renumber canonically. Two minimal DFAs produced by Minimize
// are structurally Equal iff their languages are equal, which is how the
// paper's "learner returns q" claims are tested.
//
// Moore refinement is O(n²·|Σ|) worst case; the automata minimized here
// (queries and prefix tree acceptors) have at most a few hundred states, so
// the simplicity is worth more than Hopcroft's asymptotics.
func Minimize(d *DFA) *DFA {
	// Restrict to reachable states first so unreachable garbage cannot
	// influence the partition.
	c := d.Trim().Complete()
	n := c.NumStates()
	if n == 0 {
		return NewDFA(1, d.NumSyms)
	}

	class := make([]int32, n)
	numClasses := int32(1)
	// Initial partition: final vs non-final (if both present).
	hasFinal, hasNonFinal := false, false
	for s := 0; s < n; s++ {
		if c.Final[s] {
			hasFinal = true
		} else {
			hasNonFinal = true
		}
	}
	if hasFinal && hasNonFinal {
		numClasses = 2
		for s := 0; s < n; s++ {
			if c.Final[s] {
				class[s] = 1
			}
		}
	}

	// Refine until stable: states are split by the signature
	// (own class, class of each successor).
	for {
		type key struct {
			own  int32
			succ string
		}
		ids := make(map[key]int32, n)
		next := make([]int32, n)
		var nextCount int32
		for s := 0; s < n; s++ {
			succ := make([]byte, 0, c.NumSyms*4)
			for sym := 0; sym < c.NumSyms; sym++ {
				t := class[c.Delta[s][sym]]
				succ = append(succ, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
			}
			k := key{class[s], string(succ)}
			id, ok := ids[k]
			if !ok {
				id = nextCount
				nextCount++
				ids[k] = id
			}
			next[s] = id
		}
		if nextCount == numClasses {
			break
		}
		class = next
		numClasses = nextCount
	}

	// Build the quotient DFA.
	q := NewDFA(int(numClasses), c.NumSyms)
	q.Start = class[c.Start]
	seen := make([]bool, numClasses)
	for s := 0; s < n; s++ {
		cl := class[s]
		if seen[cl] {
			continue
		}
		seen[cl] = true
		q.Final[cl] = c.Final[s]
		for sym := 0; sym < c.NumSyms; sym++ {
			q.Delta[cl][sym] = class[c.Delta[s][sym]]
		}
	}
	return q.Trim()
}

// Size returns the paper's size measure for the language of d: the number
// of states of its canonical DFA.
func Size(d *DFA) int {
	return Minimize(d).NumStates()
}
