package workload

// The workload forge: tiers 2 and 3 of the PathForge methodology.
//
// Tier 2 (templates) instantiates each abstract AQ pattern over the
// snapshot's label-frequency ranking: slot labels are drawn by a seeded
// RNG over the ranked labels, each candidate is evaluated on the pinned
// snapshot, and the first instantiation selecting at least one node is
// kept (the paper likewise retains only queries selecting at least one
// node), stamped with its measured selectivity and the selectivity band
// it fell in. Tier 3 (real queries) anchors each template at concrete
// nodes chosen by connectivity ranking: candidates are ranked by their
// CSR out-degree restricted to the query's first-symbol class (the
// symbols that can start an accepted word), and the RNG picks anchors
// from the top of that ranking — nodes where the query demonstrably has
// somewhere to go.
//
// Everything is driven by one seeded RNG over deterministic inputs (the
// ranked labels and the degree ranking are both stably ordered), so a
// (snapshot, config) pair always forges the identical workload — the
// reproducibility the three-tier methodology exists for.

import (
	"fmt"
	"math/rand"
	"sort"

	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// ForgeConfig parametrizes three-tier workload generation.
type ForgeConfig struct {
	// Seed drives every random choice the forge makes.
	Seed int64
	// Classes are the abstract classes to instantiate (nil: all 28).
	Classes []string
	// TemplatesPerClass is the number of tier-2 instantiations per class
	// (default 2).
	TemplatesPerClass int
	// AnchorsPerTemplate is the number of tier-3 anchored queries derived
	// from each template (default 2; negative disables the real tier).
	AnchorsPerTemplate int
	// TopDegree is the anchor candidate pool: anchors are drawn from the
	// this-many top nodes of the first-symbol degree ranking (default 64).
	TopDegree int
	// MaxAttempts bounds the redraws per template while hunting a
	// non-empty selection (default 16).
	MaxAttempts int
	// Bands are the selectivity bands entries are stamped with
	// (nil: DefaultBands).
	Bands []Band
}

func (cfg *ForgeConfig) defaults() error {
	if cfg.TemplatesPerClass == 0 {
		cfg.TemplatesPerClass = 2
	}
	if cfg.AnchorsPerTemplate == 0 {
		cfg.AnchorsPerTemplate = 2
	}
	if cfg.AnchorsPerTemplate < 0 {
		cfg.AnchorsPerTemplate = 0
	}
	if cfg.TopDegree <= 0 {
		cfg.TopDegree = 64
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 16
	}
	if len(cfg.Bands) == 0 {
		cfg.Bands = DefaultBands
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = make([]string, len(AbstractQueries))
		for i, aq := range AbstractQueries {
			cfg.Classes[i] = aq.ID
		}
	}
	for _, id := range cfg.Classes {
		if !ValidClass(id) {
			return fmt.Errorf("workload: unknown abstract class %q", id)
		}
	}
	return nil
}

// Forge generates a three-tier workload against a pinned epoch snapshot
// and returns it as a writable workload file. Generation is
// deterministic in (snapshot, cfg).
func Forge(s *graph.Snapshot, cfg ForgeConfig) (*File, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ranked := rankedLabels(s)
	if len(ranked) == 0 {
		return nil, fmt.Errorf("workload: cannot forge over an empty alphabet")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &File{Header: Header{
		Format: FormatVersion,
		Seed:   cfg.Seed,
		Graph: GraphInfo{
			Fingerprint: Fingerprint(s),
			Nodes:       s.NumNodes(),
			Edges:       s.NumEdges(),
			Labels:      s.Alphabet().Size(),
		},
		Params: ParamsInfo{
			Classes:            cfg.Classes,
			TemplatesPerClass:  cfg.TemplatesPerClass,
			AnchorsPerTemplate: cfg.AnchorsPerTemplate,
			TopDegree:          cfg.TopDegree,
		},
	}}
	for _, id := range cfg.Classes {
		aq, _ := AbstractByID(id)
		for t := 0; t < cfg.TemplatesPerClass; t++ {
			expr, q, sel, ok := instantiate(s, aq, ranked, rng, cfg.MaxAttempts)
			if !ok {
				continue // no non-empty instantiation found for this class
			}
			f.Entries = append(f.Entries, FileEntry{
				Class:       aq.ID,
				Tier:        TierTemplate,
				Expr:        expr,
				Semantics:   query.SemanticsNodes.String(),
				Band:        bandName(cfg.Bands, sel),
				Selectivity: sel,
			})
			if cfg.AnchorsPerTemplate == 0 {
				continue
			}
			for _, v := range pickAnchors(s, q, rng, cfg.TopDegree, cfg.AnchorsPerTemplate) {
				f.Entries = append(f.Entries, FileEntry{
					Class:       aq.ID,
					Tier:        TierReal,
					Expr:        expr,
					Semantics:   query.SemanticsPairsFrom.String(),
					From:        s.NodeName(v),
					Band:        bandName(cfg.Bands, sel),
					Selectivity: sel,
				})
			}
		}
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("workload: forge produced no entries (every instantiation selected nothing)")
	}
	return f, nil
}

// instantiate draws slot labels from the frequency ranking until the
// rendered query selects at least one node. Draws are biased toward the
// frequent end of the ranking (squared-uniform rank), mirroring how the
// existing Suite machinery starts at rank offset 0: frequent labels make
// the structural differences between the AQ classes — not shared label
// scarcity — the dominant selectivity factor.
func instantiate(s *graph.Snapshot, aq AbstractQuery, ranked []string, rng *rand.Rand, attempts int) (string, *query.Query, float64, bool) {
	for i := 0; i < attempts; i++ {
		pick := func() string {
			u := rng.Float64()
			return ranked[int(u*u*float64(len(ranked)))]
		}
		expr, err := aq.Render(pick(), pick(), pick())
		if err != nil {
			return "", nil, 0, false
		}
		q, err := query.Parse(s.Alphabet(), expr)
		if err != nil {
			// An AQ template over existing labels always parses; a failure
			// is a bug in the table, caught by tests, not a redraw.
			return "", nil, 0, false
		}
		sel := q.Evaluate(s).Selectivity()
		if sel > 0 {
			return expr, q, sel, true
		}
	}
	return "", nil, 0, false
}

// bandName stamps a selectivity with its containing band, or the nearest
// band when it falls outside every range (an ε-accepting query selects
// every node, past the broad band's ceiling).
func bandName(bands []Band, sel float64) string {
	best, bestGap := "", 0.0
	for i, b := range bands {
		gap := bandGap(b, sel)
		if gap == 0 {
			return b.Name
		}
		if i == 0 || gap < bestGap {
			best, bestGap = b.Name, gap
		}
	}
	return best
}

// pickAnchors returns up to n distinct anchor nodes for q, drawn by the
// RNG from the topDegree best candidates of the connectivity ranking:
// nodes ordered by out-degree restricted to q's first-symbol class
// (descending, ties by id so the ranking is deterministic). Nodes with
// no first-symbol out-edge are never anchors — an anchored replay
// request should exercise a traversal, not a guaranteed miss.
func pickAnchors(s *graph.Snapshot, q *query.Query, rng *rand.Rand, topDegree, n int) []graph.NodeID {
	firsts := q.Plan().FirstSym
	type scored struct {
		v     graph.NodeID
		score int
	}
	var candidates []scored
	for v := 0; v < s.NumNodes(); v++ {
		score := 0
		for _, e := range s.OutEdges(graph.NodeID(v)) {
			if int(e.Sym) < len(firsts) && firsts[e.Sym] {
				score++
			}
		}
		if score > 0 {
			candidates = append(candidates, scored{graph.NodeID(v), score})
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].score != candidates[j].score {
			return candidates[i].score > candidates[j].score
		}
		return candidates[i].v < candidates[j].v
	})
	if len(candidates) > topDegree {
		candidates = candidates[:topDegree]
	}
	if n > len(candidates) {
		n = len(candidates)
	}
	picked := rng.Perm(len(candidates))[:n]
	sort.Ints(picked) // stable file order: by rank, not by draw order
	out := make([]graph.NodeID, n)
	for i, idx := range picked {
		out[i] = candidates[idx].v
	}
	return out
}
