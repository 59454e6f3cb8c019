// Package workload implements the paper's second future-work direction
// (Section 6): a benchmark for queries defined by regular expressions on
// graphs — "motivated by the absence of benchmarks devoted to queries
// defined by regular expressions, we want to develop such a benchmark".
//
// A workload is generated from shape templates (the structural families
// the paper's evaluation uses: chains, Kleene tails, class chains,
// A·B*·C), instantiated over a concrete graph's label-frequency ranking
// and calibrated to selectivity bands. Each generated query carries the
// structural measures benchmark consumers need: canonical DFA size, star
// height, disjunction width, selectivity, and the learning-difficulty
// proxies (characteristic-sample size and the Theorem 3.5 k bound).
package workload

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"pathquery/internal/charsample"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/regex"
)

// Shape is a structural query family.
type Shape string

// The benchmark's shape families. Chain and KleeneTail mirror bio-style
// queries; ClassChain and ABStarC mirror the paper's synthetic shapes;
// Disjunction exercises union-heavy queries.
const (
	Chain       Shape = "chain"       // a1·a2·…·an
	KleeneTail  Shape = "kleene-tail" // a1·…·an·A·A*
	ClassChain  Shape = "class-chain" // A1·A2·…·An
	ABStarC     Shape = "abstar-c"    // A·B*·C
	Disjunction Shape = "disjunction" // w1 + w2 + … + wm (short chains)
)

// AllShapes lists every family.
var AllShapes = []Shape{Chain, KleeneTail, ClassChain, ABStarC, Disjunction}

// Params parametrizes instantiation of one shape.
type Params struct {
	Shape Shape
	// Length is the chain length / number of classes / number of branches.
	Length int
	// ClassWidth is the disjunction width of each class (1 = single label).
	ClassWidth int
	// RankOffset shifts which frequency ranks the classes draw from:
	// 0 starts at the most frequent label; higher offsets yield more
	// selective queries.
	RankOffset int
}

// Entry is one benchmark query with its measures.
type Entry struct {
	Params      Params
	Expr        string
	Query       *query.Query
	Selectivity float64
	// Size is the canonical DFA state count (the paper's size measure).
	Size int
	// StarHeight is the nesting depth of Kleene stars in the expression.
	StarHeight int
	// CharSampleNodes is |CS| of the Theorem 3.5 construction — a
	// learning-difficulty proxy. -1 when the query selects nothing.
	CharSampleNodes int
	// K is the Theorem 3.5 SCP bound 2·n+1.
	K int
}

// Generate instantiates the given params against a pinned epoch snapshot
// and measures the result. Pinning lets generation run against a live
// engine's served epoch while mutations publish future epochs underneath.
func Generate(s *graph.Snapshot, p Params) (Entry, error) {
	expr, err := render(s, p)
	if err != nil {
		return Entry{}, err
	}
	q, err := query.Parse(s.Alphabet(), expr)
	if err != nil {
		return Entry{}, fmt.Errorf("workload: rendering %v produced invalid expr %q: %w", p, expr, err)
	}
	e := Entry{
		Params:      p,
		Expr:        expr,
		Query:       q,
		Selectivity: q.Evaluate(s).Selectivity(),
		Size:        q.PrefixFree().Size(),
		StarHeight:  starHeight(q.Regex()),
		K:           charsample.KFor(q),
	}
	e.CharSampleNodes = -1
	if !q.IsEmpty() {
		if _, cs, err := charsample.Build(q); err == nil {
			e.CharSampleNodes = cs.Size()
		}
	}
	return e, nil
}

// render materializes a shape over the snapshot's frequency-ranked labels.
func render(s *graph.Snapshot, p Params) (string, error) {
	if p.Length < 1 {
		return "", fmt.Errorf("workload: length must be ≥ 1")
	}
	if p.ClassWidth < 1 {
		p.ClassWidth = 1
	}
	labels := rankedLabels(s)
	pick := func(i int) (string, error) {
		lo := p.RankOffset + i*p.ClassWidth
		hi := lo + p.ClassWidth
		if hi > len(labels) {
			return "", fmt.Errorf("workload: ranks [%d,%d) exceed %d labels", lo, hi, len(labels))
		}
		if p.ClassWidth == 1 {
			return labels[lo], nil
		}
		return "(" + strings.Join(labels[lo:hi], "+") + ")", nil
	}
	switch p.Shape {
	case Chain, ClassChain:
		parts := make([]string, p.Length)
		for i := range parts {
			c, err := pick(i)
			if err != nil {
				return "", err
			}
			parts[i] = c
		}
		return strings.Join(parts, "·"), nil
	case KleeneTail:
		head := make([]string, p.Length)
		for i := range head {
			c, err := pick(i)
			if err != nil {
				return "", err
			}
			head[i] = c
		}
		tail, err := pick(p.Length - 1)
		if err != nil {
			return "", err
		}
		return strings.Join(head, "·") + "·" + tail + "*", nil
	case ABStarC:
		a, err := pick(0)
		if err != nil {
			return "", err
		}
		b, err := pick(1)
		if err != nil {
			return "", err
		}
		c, err := pick(2)
		if err != nil {
			return "", err
		}
		return a + "·" + b + "*·" + c, nil
	case Disjunction:
		branches := make([]string, p.Length)
		for i := range branches {
			x, err := pick(i)
			if err != nil {
				return "", err
			}
			y, err := pick(i + 1)
			if err != nil {
				return "", err
			}
			branches[i] = x + "·" + y
		}
		return strings.Join(branches, "+"), nil
	default:
		return "", fmt.Errorf("workload: unknown shape %q", p.Shape)
	}
}

// rankedLabels returns the snapshot's labels ordered by descending edge
// frequency (ties broken by name, so the ranking is deterministic).
func rankedLabels(s *graph.Snapshot) []string {
	counts := make(map[string]int)
	for v := 0; v < s.NumNodes(); v++ {
		for _, e := range s.OutEdges(graph.NodeID(v)) {
			counts[s.Alphabet().Name(e.Sym)]++
		}
	}
	labels := s.Alphabet().Names()
	sort.SliceStable(labels, func(i, j int) bool {
		if counts[labels[i]] != counts[labels[j]] {
			return counts[labels[i]] > counts[labels[j]]
		}
		return labels[i] < labels[j]
	})
	return labels
}

// starHeight computes the star nesting depth of an expression.
func starHeight(n *regex.Node) int {
	if n == nil {
		return 0
	}
	switch n.Kind {
	case regex.Star:
		return 1 + starHeight(n.Left)
	case regex.Union, regex.Concat:
		l, r := starHeight(n.Left), starHeight(n.Right)
		if l > r {
			return l
		}
		return r
	default:
		return 0
	}
}

// Band is a selectivity target range.
type Band struct {
	Name   string
	Lo, Hi float64
}

// DefaultBands mirror the paper's workload spread: needle (bio1-like),
// narrow (bio2/bio3-like), medium (bio4/syn2-like), broad (bio6/syn3-like).
var DefaultBands = []Band{
	{"needle", 0.00001, 0.005},
	{"narrow", 0.005, 0.05},
	{"medium", 0.05, 0.20},
	{"broad", 0.20, 0.60},
}

// Suite generates, per shape and band, the instantiation whose
// selectivity falls in (or nearest to) the band, sweeping lengths, widths
// and rank offsets against one pinned epoch snapshot. Entries that select
// nothing are dropped — the paper retains only queries selecting at least
// one node.
func Suite(s *graph.Snapshot, shapes []Shape, bands []Band) []Entry {
	labels := s.Alphabet().Size()
	var out []Entry
	for _, shape := range shapes {
		for _, band := range bands {
			var best Entry
			bestGap := math.Inf(1)
			found := false
			for _, length := range []int{1, 2, 3} {
				for _, width := range []int{1, 2, 4, 8} {
					for offset := 0; offset < labels-width*3-1; offset += 2 {
						e, err := Generate(s, Params{
							Shape: shape, Length: length, ClassWidth: width, RankOffset: offset,
						})
						if err != nil {
							continue
						}
						if e.Selectivity == 0 {
							continue
						}
						gap := bandGap(band, e.Selectivity)
						if gap < bestGap {
							bestGap = gap
							best = e
							found = true
						}
						if gap == 0 {
							break
						}
					}
				}
			}
			if found && bandGap(band, best.Selectivity) < band.Lo+0.5 {
				out = append(out, best)
			}
		}
	}
	return out
}

// bandGap is 0 inside the band, distance to the nearest edge outside.
func bandGap(b Band, sel float64) float64 {
	switch {
	case sel < b.Lo:
		return b.Lo - sel
	case sel > b.Hi:
		return sel - b.Hi
	}
	return 0
}

// Print renders a suite as an aligned table.
func Print(w io.Writer, entries []Entry) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shape\tlen\twidth\toffset\tselectivity\tsize\tstar\t|CS|\tk\texpr")
	for _, e := range entries {
		expr := e.Expr
		if len(expr) > 48 {
			expr = expr[:45] + "..."
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.4f%%\t%d\t%d\t%d\t%d\t%s\n",
			e.Params.Shape, e.Params.Length, e.Params.ClassWidth, e.Params.RankOffset,
			100*e.Selectivity, e.Size, e.StarHeight, e.CharSampleNodes, e.K, expr)
	}
	tw.Flush()
}

// WriteCSV emits the suite in machine-readable form.
func WriteCSV(w io.Writer, entries []Entry) error {
	if _, err := fmt.Fprintln(w, "shape,length,width,offset,selectivity,size,star_height,cs_nodes,k,expr"); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%.6f,%d,%d,%d,%d,%q\n",
			e.Params.Shape, e.Params.Length, e.Params.ClassWidth, e.Params.RankOffset,
			e.Selectivity, e.Size, e.StarHeight, e.CharSampleNodes, e.K, e.Expr); err != nil {
			return err
		}
	}
	return nil
}
