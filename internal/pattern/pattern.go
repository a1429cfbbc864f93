// Package pattern represents the constant-size target subgraphs H and the
// combinatorial quantities the paper's algorithms are parameterized by:
//
//   - the fractional edge-cover number ρ(H) (Definition 3),
//   - decompositions of H into vertex-disjoint odd cycles and stars
//     achieving ρ(H) (Lemma 4),
//   - the decomposition-count f_T(H) used as the sampler's correction coin,
//   - the canonical cycle and star predicates (Definitions 13 and 14).
//
// Patterns are tiny (the paper treats |V(H)| as a constant), so all
// quantities are computed by exact brute force once per pattern.
package pattern

import (
	"fmt"
	"sort"
	"strings"
)

// MaxVertices is the largest supported pattern size. All brute-force
// computations in this package are exponential in the pattern size, so the
// limit is deliberately small; the paper treats |V(H)| as a constant.
const MaxVertices = 10

// Pattern is a simple undirected pattern graph H on vertices 0..n-1.
// Patterns are immutable after construction.
type Pattern struct {
	name  string
	n     int
	adj   []uint16 // adjacency bitmasks
	edges [][2]int // canonical (u<v) edge list, sorted
}

// New builds a pattern with the given name, vertex count and edge list.
// Self-loops, duplicate edges, out-of-range endpoints and isolated vertices
// are rejected (isolated vertices cannot be covered by any edge cover, so
// ρ(H) would be undefined).
func New(name string, n int, edges [][2]int) (*Pattern, error) {
	if n < 1 || n > MaxVertices {
		return nil, fmt.Errorf("pattern: vertex count %d outside [1,%d]", n, MaxVertices)
	}
	p := &Pattern{name: name, n: n, adj: make([]uint16, n)}
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("pattern: self-loop at %d", u)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("pattern: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return nil, fmt.Errorf("pattern: duplicate edge (%d,%d)", u, v)
		}
		seen[[2]int{u, v}] = true
		p.adj[u] |= 1 << uint(v)
		p.adj[v] |= 1 << uint(u)
		p.edges = append(p.edges, [2]int{u, v})
	}
	for v := 0; v < n; v++ {
		if p.adj[v] == 0 {
			return nil, fmt.Errorf("pattern: vertex %d is isolated", v)
		}
	}
	sort.Slice(p.edges, func(i, j int) bool {
		if p.edges[i][0] != p.edges[j][0] {
			return p.edges[i][0] < p.edges[j][0]
		}
		return p.edges[i][1] < p.edges[j][1]
	})
	return p, nil
}

// MustNew is New, panicking on error. Intended for the static catalog.
func MustNew(name string, n int, edges [][2]int) *Pattern {
	p, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pattern's display name.
func (p *Pattern) Name() string { return p.name }

// N returns the number of vertices of H.
func (p *Pattern) N() int { return p.n }

// M returns the number of edges of H.
func (p *Pattern) M() int { return len(p.edges) }

// Edges returns the sorted canonical edge list. Callers must not modify it.
func (p *Pattern) Edges() [][2]int { return p.edges }

// HasEdge reports whether (u,v) is an edge of H.
func (p *Pattern) HasEdge(u, v int) bool { return p.adj[u]&(1<<uint(v)) != 0 }

// Degree returns the degree of v in H.
func (p *Pattern) Degree(v int) int {
	d := 0
	for m := p.adj[v]; m != 0; m &= m - 1 {
		d++
	}
	return d
}

// Neighbors returns the neighbor list of v in increasing order.
func (p *Pattern) Neighbors(v int) []int {
	var out []int
	for w := 0; w < p.n; w++ {
		if p.HasEdge(v, w) {
			out = append(out, w)
		}
	}
	return out
}

// String renders the pattern as "name(n=.., E={..})".
func (p *Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(n=%d, E={", p.name, p.n)
	for i, e := range p.edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	b.WriteString("})")
	return b.String()
}

// Automorphisms returns |Aut(H)|, the number of adjacency-preserving
// permutations of V(H).
func (p *Pattern) Automorphisms() int64 {
	perm := make([]int, p.n)
	used := make([]bool, p.n)
	var count int64
	var rec func(i int)
	rec = func(i int) {
		if i == p.n {
			count++
			return
		}
		for c := 0; c < p.n; c++ {
			if used[c] || p.Degree(c) != p.Degree(i) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) != p.HasEdge(c, perm[j]) {
					ok = false
					break
				}
			}
			if ok {
				perm[i] = c
				used[c] = true
				rec(i + 1)
				used[c] = false
			}
		}
	}
	rec(0)
	return count
}

// ConnectedComponents returns the number of connected components of H.
func (p *Pattern) ConnectedComponents() int {
	seen := make([]bool, p.n)
	count := 0
	for s := 0; s < p.n; s++ {
		if seen[s] {
			continue
		}
		count++
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for w := 0; w < p.n; w++ {
				if p.HasEdge(v, w) && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return count
}
