// Package plan compiles a query DFA into an immutable evaluation plan —
// the IR every product-traversal evaluator in the system consumes.
//
// The serving engine, the learner's consistency checks, and the Table-1
// experiments all spend their time in product searches between a graph and
// a DFA. Before this package, every call handed a raw *automata.DFA to the
// graph layer, which rebuilt the same derived structures per call:
// per-symbol reverse-transition buckets for the backward monadic pass,
// predecessor bit-masks for the |Q| ≤ 64 engine, and final-state lookups.
// A Plan precomputes all of it exactly once per query:
//
//   - a flat forward transition table (Delta, one contiguous int32 slab
//     instead of a [][]int32 with one bounds check and pointer chase per
//     state),
//   - the reverse DFA as packed per-(symbol, state) predecessor buckets
//     (RevOff/RevPred) — the table backward evaluation walks,
//   - when |Q| ≤ 64, additionally the tables of the masked kernel, which
//     propagates backward only: PredMask[sym·|Q|+q] is the bitmask of
//     states p with δ(p, sym) = q, and FinalPredMask[sym] the union of
//     PredMask over final q — the whole first backward level as one mask,
//   - accept-reachability (Live): states from which a final state is
//     reachable, so forward searches never enter a dead region, and its
//     mirror start-reachability (Reach), which prunes backward searches,
//   - first-symbol filters (FirstSym/LastSym): the symbols that can start,
//     respectively end, an accepted word — used to skip whole nodes and
//     CSR segments before any product pair is materialized.
//
// The monadic learner's merge candidates are not compiled: each is
// searched once, on the live merger (graph.Snapshot.CoversAnyMerger).
//
// The Layout — LayoutMasked vs LayoutPacked — is chosen at compile time
// from the state count, so evaluators branch once per call, not per
// transition. Plans are immutable after construction and safe for
// unlimited concurrent use; the serving engine interns one Plan per
// canonical query language and shares it across all requests.
package plan

import (
	"time"

	"pathquery/internal/automata"
)

// None marks an absent transition, mirroring automata.None.
const None int32 = automata.None

// Layout selects the reverse-transition representation the monadic
// backward engine uses.
type Layout uint8

const (
	// LayoutMasked packs each node's marked state set into one uint64:
	// chosen when the DFA has at most 64 states (every learned and
	// workload query in practice).
	LayoutMasked Layout = iota
	// LayoutPacked indexes flat predecessor buckets by sym·|Q|+q: the
	// general layout for large automata.
	LayoutPacked
)

func (l Layout) String() string {
	if l == LayoutMasked {
		return "masked"
	}
	return "packed"
}

// Plan is a compiled, immutable evaluation plan for one query DFA. All
// fields are read-only after construction; evaluators index the tables
// directly. Plans are safe for concurrent use.
type Plan struct {
	// NumStates and NumSyms dimension every table below.
	NumStates int
	NumSyms   int
	// Start is the initial state.
	Start int32
	// Layout is the reverse-table representation chosen at compile time.
	Layout Layout

	// Delta is the flat forward transition table: Delta[q·NumSyms+sym] is
	// δ(q, sym), or None.
	Delta []int32
	// Final[q] reports whether q accepts; Finals lists the final states in
	// increasing order.
	Final  []bool
	Finals []int32
	// FinalMask is the bitmask of final states (LayoutMasked only).
	FinalMask uint64

	// Live[q] reports whether a final state is reachable from q — the
	// accept-reachability set. Forward searches skip transitions into
	// non-live states: they can never contribute to any result.
	Live []bool
	// Reach[q] reports whether q is reachable from Start — the mirror of
	// Live for backward evaluation: predecessors outside Reach can never
	// lie on an accepting run, so backward searches skip them.
	Reach []bool

	// FirstSym[sym] reports whether some accepted word starts with sym:
	// δ(Start, sym) exists and is live. A node with no out-edge labeled by
	// a first symbol cannot be selected (unless ε is accepted), so forward
	// searches skip it without touching the product space.
	FirstSym []bool
	// LastSym[sym] reports whether some accepted word ends with sym: a
	// transition on sym into a final state exists. Backward evaluation
	// seeds only from in-segments labeled by a last symbol.
	LastSym []bool

	// RevOff/RevPred are the packed reverse DFA: the predecessors of q on
	// sym are RevPred[RevOff[sym·NumStates+q]:RevOff[sym·NumStates+q+1]].
	// Built for every layout — backward traversal always walks them.
	RevOff  []int32
	RevPred []int32

	// PredMask[sym·NumStates+q] is the bitmask of states p with
	// δ(p, sym) = q: the table of the masked propagation kernel, which
	// runs backward. FinalPredMask[sym] is the union of PredMask over
	// final q — the first backward level of the monadic evaluation,
	// precomputed. LayoutMasked only.
	PredMask      []uint64
	FinalPredMask []uint64

	// AlphaMask is the 64-bit hashed alphabet of the plan: SymBit(sym)
	// OR-ed over every useful transition — one on a path from Start to a
	// final state (Reach[p] && Live[δ(p,sym)]). The engine's result
	// cache asks "was this plan's alphabet written since epoch e?" as a
	// max over these bits of graph.Snapshot.SymEpoch. The hash is
	// conservative under collision (symbols 64 apart share a bit): a
	// false intersection only forces an unnecessary regrow or drop,
	// never a wrong retain.
	AlphaMask uint64

	// CompileTime is how long table construction (plus canonicalization,
	// for Compile) took — surfaced by the engine's /plans endpoint.
	CompileTime time.Duration

	dfa *automata.DFA
}

// Compile canonicalizes d — minimize, which prunes unreachable and dead
// states — and builds its plan. Use for raw automata of unknown shape; a
// DFA that is already canonical (query.Query holds one) compiles faster
// via FromDFA.
func Compile(d *automata.DFA) *Plan {
	start := time.Now()
	p := build(automata.Minimize(d))
	p.CompileTime = time.Since(start)
	return p
}

// FromDFA builds the plan of d exactly as given: no states are added,
// removed, or renumbered, so the product-space shape (and the masked vs
// packed layout choice) matches the input automaton. Dead regions are
// still excluded from evaluation through the Live set.
func FromDFA(d *automata.DFA) *Plan {
	start := time.Now()
	p := build(d)
	p.CompileTime = time.Since(start)
	return p
}

// DFA returns the automaton the plan was built from. Callers must not
// modify it.
func (p *Plan) DFA() *automata.DFA { return p.dfa }

// Empty reports whether the plan's language is empty — no evaluation can
// select anything.
func (p *Plan) Empty() bool {
	return p.NumStates == 0 || !p.Live[p.Start]
}

// AcceptsEpsilon reports whether ε is accepted (the start state is final).
func (p *Plan) AcceptsEpsilon() bool {
	return p.NumStates > 0 && p.Final[p.Start]
}

// SymBit hashes a symbol index into a position of a 64-bit symbol mask.
// Plans (AlphaMask) and epoch deltas (graph.Delta.SymMask) must hash with
// the same function for the disjointness AND to be sound; this is the one
// definition both use.
func SymBit(sym int) uint64 { return 1 << (uint(sym) & 63) }

func build(d *automata.DFA) *Plan {
	nq, nsym := d.NumStates(), d.NumSyms
	p := &Plan{
		NumStates: nq,
		NumSyms:   nsym,
		Start:     d.Start,
		Layout:    LayoutPacked,
		dfa:       d,
	}
	if nq <= 64 {
		p.Layout = LayoutMasked
	}
	if nq == 0 {
		return p
	}

	// Flat forward table and finals.
	p.Delta = make([]int32, nq*nsym)
	p.Final = make([]bool, nq)
	for q := 0; q < nq; q++ {
		copy(p.Delta[q*nsym:(q+1)*nsym], d.Delta[q])
		if d.Final[q] {
			p.Final[q] = true
			p.Finals = append(p.Finals, int32(q))
			if p.Layout == LayoutMasked {
				p.FinalMask |= 1 << uint(q)
			}
		}
	}

	// Packed reverse DFA, bucketed by sym·|Q|+q: one counting pass sizes
	// the buckets, a second fills them.
	p.RevOff = make([]int32, nsym*nq+1)
	for q := 0; q < nq; q++ {
		for sym := 0; sym < nsym; sym++ {
			if t := p.Delta[q*nsym+sym]; t != None {
				p.RevOff[sym*nq+int(t)+1]++
			}
		}
	}
	for i := 1; i < len(p.RevOff); i++ {
		p.RevOff[i] += p.RevOff[i-1]
	}
	p.RevPred = make([]int32, p.RevOff[len(p.RevOff)-1])
	fill := append([]int32(nil), p.RevOff[:len(p.RevOff)-1]...)
	for q := 0; q < nq; q++ {
		for sym := 0; sym < nsym; sym++ {
			if t := p.Delta[q*nsym+sym]; t != None {
				k := sym*nq + int(t)
				p.RevPred[fill[k]] = int32(q)
				fill[k]++
			}
		}
	}

	// Accept-reachability over the reverse table.
	p.Live = make([]bool, nq)
	stack := append([]int32(nil), p.Finals...)
	for _, f := range p.Finals {
		p.Live[f] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for sym := 0; sym < nsym; sym++ {
			k := sym*nq + int(q)
			for _, pr := range p.RevPred[p.RevOff[k]:p.RevOff[k+1]] {
				if !p.Live[pr] {
					p.Live[pr] = true
					stack = append(stack, pr)
				}
			}
		}
	}
	// Start-reachability over the forward table.
	p.Reach = make([]bool, nq)
	p.Reach[p.Start] = true
	stack = append(stack[:0], p.Start)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for sym := 0; sym < nsym; sym++ {
			if t := p.Delta[int(q)*nsym+sym]; t != None && !p.Reach[t] {
				p.Reach[t] = true
				stack = append(stack, t)
			}
		}
	}

	// Hashed useful alphabet: transitions outside Reach×Live cannot lie
	// on an accepting run, so their symbols do not make a graph delta
	// relevant to this plan.
	for q := 0; q < nq; q++ {
		if !p.Reach[q] {
			continue
		}
		for sym := 0; sym < nsym; sym++ {
			if t := p.Delta[q*nsym+sym]; t != None && p.Live[t] {
				p.AlphaMask |= SymBit(sym)
			}
		}
	}

	// Symbol filters.
	p.FirstSym = make([]bool, nsym)
	for sym := 0; sym < nsym; sym++ {
		if t := p.Delta[int(p.Start)*nsym+sym]; t != None && p.Live[t] {
			p.FirstSym[sym] = true
		}
	}
	p.LastSym = make([]bool, nsym)
	for sym := 0; sym < nsym; sym++ {
		for _, f := range p.Finals {
			k := sym*nq + int(f)
			if p.RevOff[k] < p.RevOff[k+1] {
				p.LastSym[sym] = true
				break
			}
		}
	}

	// Masked layout.
	if p.Layout == LayoutMasked {
		p.PredMask = make([]uint64, nsym*nq)
		for q := 0; q < nq; q++ {
			for sym := 0; sym < nsym; sym++ {
				if t := p.Delta[q*nsym+sym]; t != None {
					p.PredMask[sym*nq+int(t)] |= 1 << uint(q)
				}
			}
		}
		p.FinalPredMask = make([]uint64, nsym)
		for sym := 0; sym < nsym; sym++ {
			var pm uint64
			for _, f := range p.Finals {
				pm |= p.PredMask[sym*nq+int(f)]
			}
			p.FinalPredMask[sym] = pm
		}
	}
	return p
}
