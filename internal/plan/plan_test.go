package plan

import (
	"math/rand"
	"testing"

	"pathquery/internal/automata"
)

// checkTables verifies every derived table of p against the source DFA by
// direct recomputation.
func checkTables(t *testing.T, p *Plan, d *automata.DFA) {
	t.Helper()
	nq, nsym := d.NumStates(), d.NumSyms
	if p.NumStates != nq || p.NumSyms != nsym || p.Start != d.Start {
		t.Fatalf("dimensions: got (%d,%d,%d), want (%d,%d,%d)",
			p.NumStates, p.NumSyms, p.Start, nq, nsym, d.Start)
	}
	wantLayout := LayoutPacked
	if nq <= 64 {
		wantLayout = LayoutMasked
	}
	if p.Layout != wantLayout {
		t.Fatalf("layout: got %v for %d states", p.Layout, nq)
	}
	for q := 0; q < nq; q++ {
		if p.Final[q] != d.Final[q] {
			t.Fatalf("final[%d] mismatch", q)
		}
		for sym := 0; sym < nsym; sym++ {
			if p.Delta[q*nsym+sym] != d.Delta[q][sym] {
				t.Fatalf("delta[%d][%d] mismatch", q, sym)
			}
		}
	}
	// Reverse buckets: q ∈ RevPred[sym, t] iff δ(q, sym) = t.
	for sym := 0; sym < nsym; sym++ {
		for tgt := 0; tgt < nq; tgt++ {
			k := sym*nq + tgt
			preds := map[int32]bool{}
			for _, pr := range p.RevPred[p.RevOff[k]:p.RevOff[k+1]] {
				preds[pr] = true
			}
			for q := 0; q < nq; q++ {
				want := d.Delta[q][sym] == int32(tgt)
				if preds[int32(q)] != want {
					t.Fatalf("revpred(sym=%d, t=%d, q=%d): got %v want %v",
						sym, tgt, q, preds[int32(q)], want)
				}
				if p.Layout == LayoutMasked {
					got := p.PredMask[k]&(1<<uint(q)) != 0
					if got != want {
						t.Fatalf("predmask(sym=%d, t=%d, q=%d): got %v want %v",
							sym, tgt, q, got, want)
					}
				}
			}
		}
	}
	// Live = can reach a final; Reach = reachable from start (reference BFS).
	live := make([]bool, nq)
	for changed := true; changed; {
		changed = false
		for q := 0; q < nq; q++ {
			if live[q] {
				continue
			}
			ok := d.Final[q]
			for sym := 0; sym < nsym && !ok; sym++ {
				if t := d.Delta[q][sym]; t != automata.None && live[t] {
					ok = true
				}
			}
			if ok {
				live[q], changed = true, true
			}
		}
	}
	reach := make([]bool, nq)
	reach[d.Start] = true
	for changed := true; changed; {
		changed = false
		for q := 0; q < nq; q++ {
			if !reach[q] {
				continue
			}
			for sym := 0; sym < nsym; sym++ {
				if t := d.Delta[q][sym]; t != automata.None && !reach[t] {
					reach[t], changed = true, true
				}
			}
		}
	}
	for q := 0; q < nq; q++ {
		if p.Live[q] != live[q] {
			t.Fatalf("live[%d]: got %v want %v", q, p.Live[q], live[q])
		}
		if p.Reach[q] != reach[q] {
			t.Fatalf("reach[%d]: got %v want %v", q, p.Reach[q], reach[q])
		}
	}
	for sym := 0; sym < nsym; sym++ {
		wantFirst := false
		if t := d.Delta[d.Start][sym]; t != automata.None && live[t] {
			wantFirst = true
		}
		if p.FirstSym[sym] != wantFirst {
			t.Fatalf("firstsym[%d]: got %v want %v", sym, p.FirstSym[sym], wantFirst)
		}
		wantLast := false
		for q := 0; q < nq; q++ {
			if t := d.Delta[q][sym]; t != automata.None && d.Final[t] {
				wantLast = true
			}
		}
		if p.LastSym[sym] != wantLast {
			t.Fatalf("lastsym[%d]: got %v want %v", sym, p.LastSym[sym], wantLast)
		}
	}
}

func TestFromDFATablesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		nq := 1 + rng.Intn(8)
		nsym := 1 + rng.Intn(4)
		d := automata.RandomNonEmptyDFA(rng, nq, nsym, 0.2+0.6*rng.Float64())
		checkTables(t, FromDFA(d), d)
	}
}

// TestFromDFAPackedLayout pins the layout switch at 65 states and checks
// the packed tables on a large chain DFA (a^64·b accepted).
func TestFromDFAPackedLayout(t *testing.T) {
	d := automata.NewDFA(66, 2)
	for q := 0; q < 64; q++ {
		d.Delta[q][0] = int32(q + 1)
	}
	d.Delta[64][1] = 65
	d.Final[65] = true
	p := FromDFA(d)
	if p.Layout != LayoutPacked {
		t.Fatalf("66-state DFA got layout %v", p.Layout)
	}
	checkTables(t, p, d)
	if p.FirstSym[1] || !p.FirstSym[0] {
		t.Fatalf("firstsym = %v, want only symbol 0", p.FirstSym)
	}
	if p.LastSym[0] || !p.LastSym[1] {
		t.Fatalf("lastsym = %v, want only symbol 1", p.LastSym)
	}
}

// TestCompileCanonicalizes verifies Compile prunes dead and unreachable
// states (Minimize) while FromDFA preserves shape.
func TestCompileCanonicalizes(t *testing.T) {
	// States: 0 -a-> 1 (final); 2 unreachable; 3 dead (reachable, no
	// accept): 0 -b-> 3.
	d := automata.NewDFA(4, 2)
	d.Delta[0][0] = 1
	d.Delta[0][1] = 3
	d.Final[1] = true
	c := Compile(d)
	if c.NumStates != 2 {
		t.Fatalf("Compile kept %d states, want 2", c.NumStates)
	}
	f := FromDFA(d)
	if f.NumStates != 4 {
		t.Fatalf("FromDFA reshaped to %d states", f.NumStates)
	}
	if f.Live[3] || f.Live[2] || !f.Live[0] || !f.Live[1] {
		t.Fatalf("live = %v", f.Live)
	}
	if f.Reach[2] || !f.Reach[3] {
		t.Fatalf("reach = %v", f.Reach)
	}
	if c.Empty() || f.Empty() {
		t.Fatal("nonempty language reported empty")
	}
	if !FromDFA(automata.NewDFA(1, 2)).Empty() {
		t.Fatal("empty language not reported empty")
	}
}

func TestEpsilonAndEmpty(t *testing.T) {
	eps := automata.NewDFA(1, 1)
	eps.Final[0] = true
	p := FromDFA(eps)
	if !p.AcceptsEpsilon() || p.Empty() {
		t.Fatal("ε-DFA misclassified")
	}
	if p.CompileTime < 0 {
		t.Fatal("negative compile time")
	}
}

// TestAlphaMask verifies the plan's alphabet bitmask against direct
// recomputation: SymBit(sym) is set iff some transition on sym leaves a
// reachable state for a live target — exactly the transitions an
// accepting run can take, so the engine's delta-disjointness test
// (delta.SymMask & AlphaMask == 0) never falsely retains a cached
// result. Symbols ≥ 64 hash into the 64-bit mask; collisions are safe
// (conservative) by construction, which random DFAs exercise only below
// the fold, so the hash itself is pinned separately.
func TestAlphaMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		nq := 1 + rng.Intn(8)
		nsym := 1 + rng.Intn(5)
		d := automata.RandomNonEmptyDFA(rng, nq, nsym, 0.2+0.6*rng.Float64())
		p := FromDFA(d)
		var want uint64
		for q := 0; q < d.NumStates(); q++ {
			if !p.Reach[q] {
				continue
			}
			for sym := 0; sym < d.NumSyms; sym++ {
				if tgt := d.Delta[q][sym]; tgt != automata.None && p.Live[tgt] {
					want |= SymBit(sym)
				}
			}
		}
		if p.AlphaMask != want {
			t.Fatalf("iter %d: AlphaMask = %b, recomputed %b", i, p.AlphaMask, want)
		}
	}
	if SymBit(0) != 1 || SymBit(63) != 1<<63 || SymBit(64) != 1 || SymBit(65) != 2 {
		t.Fatal("SymBit must fold symbol indices mod 64")
	}
	// A dead transition (target cannot reach a final state) must not
	// contribute: a·b accepted, c goes to a sink.
	d := automata.NewDFA(4, 3)
	d.Final[2] = true
	d.Delta[0][0] = 1
	d.Delta[1][1] = 2
	d.Delta[0][2] = 3 // sink
	p := FromDFA(d)
	if want := SymBit(0) | SymBit(1); p.AlphaMask != want {
		t.Fatalf("chain AlphaMask = %b, want %b (dead sink transition excluded)", p.AlphaMask, want)
	}
}
