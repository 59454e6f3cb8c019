package main

// An independent reference evaluator: the benchmark keeps its own copy
// of every edge it sent to the server and checks sampled answers against
// a plain product-graph search over that copy. It shares no code with
// the program under test — its own regex parser, its own Thompson NFA,
// its own breadth-first searches — so a wrong answer cannot be checked
// by the code that produced it.

import (
	"fmt"
	"strings"
)

// edge is one labeled edge by name, the unit /mutate takes.
type edge struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

type refArc struct{ label, node int }

// refGraph is the reference copy of the served graph. Nodes exist from
// their first edge on, as in the server.
type refGraph struct {
	ids    map[string]int
	names  []string
	labels map[string]int
	out    [][]refArc
	in     [][]refArc
}

func newRefGraph() *refGraph {
	return &refGraph{ids: map[string]int{}, labels: map[string]int{}}
}

func (g *refGraph) node(name string) int {
	if id, ok := g.ids[name]; ok {
		return id
	}
	id := len(g.names)
	g.ids[name] = id
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

func (g *refGraph) add(e edge) {
	l, ok := g.labels[e.Label]
	if !ok {
		l = len(g.labels)
		g.labels[e.Label] = l
	}
	u, v := g.node(e.From), g.node(e.To)
	g.out[u] = append(g.out[u], refArc{l, v})
	g.in[v] = append(g.in[v], refArc{l, u})
}

// rnode is a regular-expression syntax tree node.
type rnode struct {
	kind        byte // 'l' label, 'e' ε, '0' ∅, '.' concat, '+' union, '*' star
	label       string
	left, right *rnode
}

// parseRegex parses the query grammar the server accepts and renders:
// labels, ε, ∅, parentheses, union ('+' or '|'), concatenation ('·',
// '.' or juxtaposition) and postfix star.
func parseRegex(src string) (*rnode, error) {
	p := &rparser{s: src}
	n, err := p.union()
	if err != nil {
		return nil, err
	}
	p.space()
	if p.i != len(p.s) {
		return nil, fmt.Errorf("reference: unexpected %q in %q", p.s[p.i:], src)
	}
	return n, nil
}

type rparser struct {
	s string
	i int
}

func (p *rparser) space() {
	for p.i < len(p.s) && p.s[p.i] == ' ' {
		p.i++
	}
}

func (p *rparser) eat(tok string) bool {
	p.space()
	if strings.HasPrefix(p.s[p.i:], tok) {
		p.i += len(tok)
		return true
	}
	return false
}

func isLabelByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

func (p *rparser) union() (*rnode, error) {
	n, err := p.concat()
	for err == nil && (p.eat("+") || p.eat("|")) {
		var r *rnode
		if r, err = p.concat(); err == nil {
			n = &rnode{kind: '+', left: n, right: r}
		}
	}
	return n, err
}

func (p *rparser) concat() (*rnode, error) {
	n, err := p.star()
	for err == nil {
		if !p.eat("·") && !p.eat(".") {
			p.space()
			if p.i >= len(p.s) || !(p.s[p.i] == '(' || isLabelByte(p.s[p.i]) || strings.HasPrefix(p.s[p.i:], "ε") || strings.HasPrefix(p.s[p.i:], "∅")) {
				return n, nil
			}
		}
		var r *rnode
		if r, err = p.star(); err == nil {
			n = &rnode{kind: '.', left: n, right: r}
		}
	}
	return n, err
}

func (p *rparser) star() (*rnode, error) {
	n, err := p.atom()
	for err == nil && p.eat("*") {
		n = &rnode{kind: '*', left: n}
	}
	return n, err
}

func (p *rparser) atom() (*rnode, error) {
	switch {
	case p.eat("ε"), p.eat("()"):
		return &rnode{kind: 'e'}, nil
	case p.eat("∅"):
		return &rnode{kind: '0'}, nil
	case p.eat("("):
		n, err := p.union()
		if err == nil && !p.eat(")") {
			err = fmt.Errorf("reference: missing ')' in %q", p.s)
		}
		return n, err
	}
	start := p.i
	for p.i < len(p.s) && isLabelByte(p.s[p.i]) {
		p.i++
	}
	if p.i == start {
		return nil, fmt.Errorf("reference: expected an atom at offset %d in %q", p.i, p.s)
	}
	return &rnode{kind: 'l', label: p.s[start:p.i]}, nil
}

// refNFA is an ε-free NFA over the graph's label ids: from state q, arcs
// [q] lists (label, target) pairs; rev is the same relation reversed.
// Labels the graph does not have are dropped, since no edge carries them.
type refNFA struct {
	start  int
	accept []bool
	arcs   [][]refArc
	rev    [][]refArc
}

// compile builds the ε-free NFA of src over g's labels by Thompson's
// construction followed by ε-closure elimination.
func (g *refGraph) compile(src string) (*refNFA, error) {
	root, err := parseRegex(src)
	if err != nil {
		return nil, err
	}
	var eps [][]int
	var lits [][]struct {
		label string
		to    int
	}
	state := func() int {
		eps = append(eps, nil)
		lits = append(lits, nil)
		return len(eps) - 1
	}
	var build func(n *rnode) (int, int)
	build = func(n *rnode) (int, int) {
		s, f := state(), state()
		switch n.kind {
		case 'l':
			lits[s] = append(lits[s], struct {
				label string
				to    int
			}{n.label, f})
		case 'e':
			eps[s] = append(eps[s], f)
		case '.':
			s1, f1 := build(n.left)
			s2, f2 := build(n.right)
			eps[s] = append(eps[s], s1)
			eps[f1] = append(eps[f1], s2)
			eps[f2] = append(eps[f2], f)
		case '+':
			s1, f1 := build(n.left)
			s2, f2 := build(n.right)
			eps[s] = append(eps[s], s1, s2)
			eps[f1] = append(eps[f1], f)
			eps[f2] = append(eps[f2], f)
		case '*':
			s1, f1 := build(n.left)
			eps[s] = append(eps[s], s1, f)
			eps[f1] = append(eps[f1], s1, f)
		}
		return s, f
	}
	start, final := build(root)

	n := len(eps)
	a := &refNFA{start: start, accept: make([]bool, n), arcs: make([][]refArc, n), rev: make([][]refArc, n)}
	seen := make([]int, n)
	for q := range seen {
		seen[q] = -1
	}
	for q := 0; q < n; q++ {
		// Depth-first ε-closure of q; seen[r] == q marks r visited.
		stack := []int{q}
		seen[q] = q
		dup := map[refArc]bool{}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if r == final {
				a.accept[q] = true
			}
			for _, l := range lits[r] {
				id, ok := g.labels[l.label]
				if arc := (refArc{id, l.to}); ok && !dup[arc] {
					dup[arc] = true
					a.arcs[q] = append(a.arcs[q], arc)
					a.rev[l.to] = append(a.rev[l.to], refArc{id, q})
				}
			}
			for _, t := range eps[r] {
				if seen[t] != q {
					seen[t] = q
					stack = append(stack, t)
				}
			}
		}
	}
	return a, nil
}

// selectNodes returns the monadic selection: v is selected iff some path
// from v spells a word of the language. One backward search over the
// product graph from every accepting (node, state) pair.
func (g *refGraph) selectNodes(a *refNFA) []bool {
	ns := len(a.accept)
	mark := make([]bool, len(g.names)*ns)
	var queue []int
	for v := range g.names {
		for q, acc := range a.accept {
			if acc {
				mark[v*ns+q] = true
				queue = append(queue, v*ns+q)
			}
		}
	}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		v, q := x/ns, x%ns
		for _, back := range a.rev[q] {
			for _, in := range g.in[v] {
				if in.label != back.label {
					continue
				}
				if y := in.node*ns + back.node; !mark[y] {
					mark[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	sel := make([]bool, len(g.names))
	for v := range sel {
		sel[v] = mark[v*ns+a.start]
	}
	return sel
}

// pairsFrom returns the binary selection from u: v is selected iff some
// path from u to v spells a word of the language.
func (g *refGraph) pairsFrom(a *refNFA, u int) []bool {
	ns := len(a.accept)
	mark := make([]bool, len(g.names)*ns)
	sel := make([]bool, len(g.names))
	mark[u*ns+a.start] = true
	queue := []int{u*ns + a.start}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		v, q := x/ns, x%ns
		if a.accept[q] {
			sel[v] = true
		}
		for _, fwd := range a.arcs[q] {
			for _, out := range g.out[v] {
				if out.label != fwd.label {
					continue
				}
				if y := out.node*ns + fwd.node; !mark[y] {
					mark[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return sel
}

// acceptsWithin reports whether some path of at most k edges from u
// spells a word of the language: a breadth-first search k levels deep.
func (g *refGraph) acceptsWithin(a *refNFA, u, k int) bool {
	ns := len(a.accept)
	seen := map[int]bool{u*ns + a.start: true}
	level := []int{u*ns + a.start}
	for depth := 0; len(level) > 0; depth++ {
		var next []int
		for _, x := range level {
			v, q := x/ns, x%ns
			if a.accept[q] {
				return true
			}
			if depth == k {
				continue
			}
			for _, fwd := range a.arcs[q] {
				for _, out := range g.out[v] {
					if y := out.node*ns + fwd.node; out.label == fwd.label && !seen[y] {
						seen[y] = true
						next = append(next, y)
					}
				}
			}
		}
		level = next
	}
	return false
}

func count(sel []bool) int {
	n := 0
	for _, s := range sel {
		if s {
			n++
		}
	}
	return n
}
