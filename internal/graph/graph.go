// Package graph provides the static, in-memory graph representation used by
// the exact counters, the query-access oracles and the workload generators.
//
// Graphs are simple and undirected: no self-loops, no parallel edges.
// Vertices are identified by dense integer IDs in [0, N).
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is an undirected edge between two vertices. The zero value is the
// (invalid) self-loop {0,0}.
type Edge struct {
	U, V int64
}

// Canon returns the edge with endpoints ordered so that U <= V. Two edges are
// the same undirected edge iff their Canon values are equal.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// EdgeKey packs the undirected edge (u,v) into one canonical key, u<<32 | v
// with u ≤ v: the key the graph's edge set and the transform runners hold.
// Both endpoints must lie in [0, MaxVertices).
func EdgeKey(u, v int64) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// KeyEdge decodes EdgeKey into the canonical edge.
func KeyEdge(k uint64) Edge {
	return Edge{U: int64(k >> 32), V: int64(k & (1<<32 - 1))}
}

// Reverse returns the edge with endpoints swapped.
func (e Edge) Reverse() Edge { return Edge{e.V, e.U} }

// IsLoop reports whether the edge is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph stored as adjacency lists, each in
// insertion order (the order Neighbor answers f3 queries in), plus a hash
// set of packed edge keys that answers HasEdge (the f2 query) in expected
// O(1) probes without a Go map.
//
// A Graph is built incrementally with AddEdge and is safe for concurrent
// reads once construction is complete.
type Graph struct {
	n   int64
	m   int64
	adj [][]int64
	set edgeSet
}

// New returns an empty graph on n vertices (IDs 0..n-1). It panics unless
// 0 <= n <= MaxVertices.
func New(n int64) *Graph {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("graph: %d vertices outside [0, %d]", n, int64(MaxVertices)))
	}
	return &Graph{n: n, adj: make([][]int64, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int64 { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int64 { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int64) int64 { return int64(len(g.adj[v])) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int64 {
	var max int64
	for v := int64(0); v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int64) []int64 { return g.adj[v] }

// Neighbor returns the i-th neighbor of v (0-based) in insertion order,
// matching the f3 query of the augmented general graph model.
func (g *Graph) Neighbor(v int64, i int64) int64 { return g.adj[v][i] }

// HasEdge reports whether the undirected edge (u,v) is present. Endpoints
// outside [0, N) are never adjacent.
func (g *Graph) HasEdge(u, v int64) bool {
	k, ok := g.key(u, v)
	return ok && g.set.has(k)
}

// key returns (u,v)'s edge-set key, or false for a self-loop or an endpoint
// outside [0, N): no key is stored for those, and the self-loop (0,0) would
// pack to the empty-slot mark.
func (g *Graph) key(u, v int64) (uint64, bool) {
	if u == v || uint64(u) >= uint64(g.n) || uint64(v) >= uint64(g.n) {
		return 0, false
	}
	return EdgeKey(u, v), true
}

// AddEdge inserts the undirected edge (u,v). It reports whether the edge was
// newly added (false for duplicates and self-loops). It panics on an
// endpoint outside [0, N).
func (g *Graph) AddEdge(u, v int64) bool {
	k, ok := g.key(u, v)
	if !ok {
		if u == v {
			return false
		}
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if !g.set.insert(k) {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge (u,v). It reports whether the edge
// was present.
func (g *Graph) RemoveEdge(u, v int64) bool {
	if k, ok := g.key(u, v); !ok || !g.set.remove(k) {
		return false
	}
	g.adj[u] = removeOne(g.adj[u], v)
	g.adj[v] = removeOne(g.adj[v], u)
	g.m--
	return true
}

func removeOne(s []int64, x int64) []int64 {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Edges returns all edges in canonical (U<=V) form, sorted lexicographically.
// The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := int64(0); u < g.n; u++ {
		from := len(out)
		for _, v := range g.adj[u] {
			if v > u {
				out = append(out, Edge{u, v})
			}
		}
		slices.SortFunc(out[from:], func(a, b Edge) int { return cmp.Compare(a.V, b.V) })
	}
	return out
}

// Clone returns a deep copy of the graph, adjacency order included, so a
// clone answers Neighbor exactly as its source does.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([][]int64, g.n), set: g.set}
	c.set.slots = slices.Clone(g.set.slots)
	for v, nb := range g.adj {
		c.adj[v] = slices.Clone(nb)
	}
	return c
}

// Subgraph returns the subgraph induced by the given vertices, relabelled to
// 0..len(vs)-1 in the order given. Duplicate vertices are an error.
func (g *Graph) Subgraph(vs []int64) (*Graph, error) {
	idx := make(map[int64]int64, len(vs))
	for i, v := range vs {
		if _, dup := idx[v]; dup {
			return nil, fmt.Errorf("graph: duplicate vertex %d in subgraph", v)
		}
		if v < 0 || v >= g.n {
			return nil, fmt.Errorf("graph: vertex %d out of range [0,%d)", v, g.n)
		}
		idx[v] = int64(i)
	}
	s := New(int64(len(vs)))
	for i, u := range vs {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(u, vs[j]) {
				s.AddEdge(int64(i), int64(j))
			}
		}
	}
	return s, nil
}

// Less reports whether u precedes v in the vertex order ≺_G of Definition 12:
// by degree, ties broken by vertex ID.
func (g *Graph) Less(u, v int64) bool {
	du, dv := g.Degree(u), g.Degree(v)
	if du != dv {
		return du < dv
	}
	return u < v
}

// MinVertex returns the ≺_G-minimum of the given non-empty vertex list.
func (g *Graph) MinVertex(vs []int64) int64 {
	min := vs[0]
	for _, v := range vs[1:] {
		if g.Less(v, min) {
			min = v
		}
	}
	return min
}

// Validate checks internal consistency (adjacency lists vs edge set) and
// returns an error describing the first inconsistency found.
func (g *Graph) Validate() error {
	var deg int64
	for v := int64(0); v < g.n; v++ {
		deg += g.Degree(v)
		seen := make(map[int64]bool, len(g.adj[v]))
		for _, w := range g.adj[v] {
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if seen[w] {
				return fmt.Errorf("graph: duplicate neighbor %d of %d", w, v)
			}
			seen[w] = true
			if !g.HasEdge(v, w) {
				return fmt.Errorf("graph: adjacency (%d,%d) missing from edge set", v, w)
			}
		}
	}
	if deg != 2*g.m {
		return fmt.Errorf("graph: degree sum %d != 2m = %d", deg, 2*g.m)
	}
	if g.set.count != g.m {
		return fmt.Errorf("graph: edge set holds %d edges, m = %d", g.set.count, g.m)
	}
	return nil
}
