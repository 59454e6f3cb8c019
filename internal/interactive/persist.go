package interactive

import (
	"encoding/json"
	"fmt"
	"io"

	"pathquery/internal/core"
	"pathquery/internal/graph"
)

// Sample persistence lets an interactive session be interrupted and
// resumed: labels are stored by node name, so a saved session survives
// graph re-serialization as long as names are stable.

type sampleJSON struct {
	Pos []string `json:"pos"`
	Neg []string `json:"neg"`
}

// SaveSample writes the sample as JSON with node names.
func SaveSample(w io.Writer, g *graph.Graph, s core.Sample) error {
	out := sampleJSON{Pos: make([]string, 0, len(s.Pos)), Neg: make([]string, 0, len(s.Neg))}
	for _, v := range s.Pos {
		out.Pos = append(out.Pos, g.NodeName(v))
	}
	for _, v := range s.Neg {
		out.Neg = append(out.Neg, g.NodeName(v))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadSample reads a saved sample and resolves names on g.
func LoadSample(r io.Reader, g *graph.Graph) (core.Sample, error) {
	var in sampleJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return core.Sample{}, fmt.Errorf("interactive: decoding sample: %w", err)
	}
	var s core.Sample
	for _, name := range in.Pos {
		id, ok := g.NodeByName(name)
		if !ok {
			return core.Sample{}, fmt.Errorf("interactive: unknown node %q in saved sample", name)
		}
		s.Pos = append(s.Pos, id)
	}
	for _, name := range in.Neg {
		id, ok := g.NodeByName(name)
		if !ok {
			return core.Sample{}, fmt.Errorf("interactive: unknown node %q in saved sample", name)
		}
		s.Neg = append(s.Neg, id)
	}
	if err := s.Validate(); err != nil {
		return core.Sample{}, err
	}
	return s, nil
}

// Resume builds a session pinned to snap, pre-loaded with an existing
// sample: the k schedule is warmed up to the sample's needs and proposals
// skip labeled nodes as usual. A sample naming a node outside snap is an
// error.
func Resume(snap *graph.Snapshot, s core.Sample, opts Options) (*Session, error) {
	if err := s.ValidateOn(snap); err != nil {
		return nil, err
	}
	sess := NewSession(snap, opts)
	for _, v := range s.Pos {
		if err := sess.Label(v, true); err != nil {
			return nil, err
		}
	}
	for _, v := range s.Neg {
		if err := sess.Label(v, false); err != nil {
			return nil, err
		}
	}
	return sess, nil
}
