package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"pathquery/internal/alphabet"
)

// Serialization: a plain tab-separated text format.
//
//	# comment
//	v<TAB>nodeName
//	e<TAB>from<TAB>label<TAB>to
//
// Node lines are optional for nodes that appear in edges; they are required
// to represent isolated nodes and they fix node-id order, which keeps
// datasets reproducible byte-for-byte.

// WriteTSV serializes the snapshot.
func (s *Snapshot) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < s.nv; v++ {
		if _, err := fmt.Fprintf(bw, "v\t%s\n", s.names[v]); err != nil {
			return err
		}
	}
	for v := 0; v < s.nv; v++ {
		for _, e := range s.out.row(NodeID(v)) {
			if _, err := fmt.Fprintf(bw, "e\t%s\t%s\t%s\n",
				s.names[v], s.g.alpha.Name(e.Sym), s.names[e.To]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTSV parses a graph in the WriteTSV format. If alpha is nil a fresh
// alphabet is created; labels are interned in file order.
func ReadTSV(r io.Reader, alpha *alphabet.Alphabet) (*Graph, error) {
	g := New(alpha)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "v":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want v<TAB>name", lineNo)
			}
			if fields[1] == "" {
				return nil, fmt.Errorf("graph: line %d: empty node name", lineNo)
			}
			g.AddNode(fields[1])
		case "e":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want e<TAB>from<TAB>label<TAB>to", lineNo)
			}
			if fields[1] == "" || fields[2] == "" || fields[3] == "" {
				return nil, fmt.Errorf("graph: line %d: empty field in edge record", lineNo)
			}
			// Intern would panic past the symbol cap; a malformed or hostile
			// file must surface as an error instead.
			if _, ok := g.alpha.Lookup(fields[2]); !ok && g.alpha.Size() >= alphabet.MaxSymbols {
				return nil, fmt.Errorf("graph: line %d: label %q exceeds the %d-symbol alphabet cap",
					lineNo, fields[2], alphabet.MaxSymbols)
			}
			g.AddEdgeByName(fields[1], fields[2], fields[3])
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
