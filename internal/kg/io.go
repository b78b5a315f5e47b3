package kg

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteTSV writes the graph's triples, then extra, as tab-separated
// "head<TAB>relation<TAB>tail" lines using the graph's dictionary names.
// A dataset's validation graph is WriteTSV(w, ds.Train, ds.ValidEdges...).
func WriteTSV(w io.Writer, g *Graph, extra ...Triple) error {
	bw := bufio.NewWriter(w)
	for _, ts := range [][]Triple{g.Triples(), extra} {
		for _, t := range ts {
			if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n",
				g.Entities.Name(int32(t.H)), g.Relations.Name(int32(t.R)), g.Entities.Name(int32(t.T))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTSV parses tab-separated triples into a new graph, registering
// names in the given dictionaries (which may be shared with other
// graphs). Blank lines and lines starting with '#' are skipped.
func ReadTSV(r io.Reader, entities, relations *Dict) (*Graph, error) {
	g := NewGraph(entities, relations)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("kg: line %d: want 3 tab-separated fields, got %d", lineNo, len(parts))
		}
		h := entities.Add(parts[0])
		rel := relations.Add(parts[1])
		t := entities.Add(parts[2])
		g.AddTriple(Triple{H: EntityID(h), R: RelationID(rel), T: EntityID(t)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("kg: read tsv: %w", err)
	}
	return g, nil
}
