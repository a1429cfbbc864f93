package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list: a header line
// "n m" followed by one "u v" line per edge in canonical sorted order.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Blank lines and
// lines starting with '#' are ignored. The header's vertex count must lie in
// [0, MaxVertices].
func ReadEdgeList(r io.Reader) (*Graph, error) { return readEdgeList(r, MaxVertices) }

// readEdgeList is ReadEdgeList with the vertex count bounded by maxN. The
// graph allocates one adjacency list per vertex up front, so the fuzz target
// lowers maxN to keep a header from costing gigabytes.
func readEdgeList(r io.Reader, maxN int64) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		if g == nil {
			var n, m int64
			if _, err := fmt.Sscanf(txt, "%d %d", &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad header %q: %v", line, txt, err)
			}
			if n < 0 || n > maxN {
				return nil, fmt.Errorf("graph: line %d: vertex count %d outside [0, %d]", line, n, maxN)
			}
			g = New(n)
			continue
		}
		var u, v int64
		if _, err := fmt.Sscanf(txt, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q: %v", line, txt, err)
		}
		if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) out of range [0,%d)", line, u, v, g.N())
		}
		g.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return g, nil
}
