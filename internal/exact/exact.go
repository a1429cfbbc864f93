// Package exact provides exact subgraph counting on in-memory graphs. It
// supplies the ground truth for every experiment and the "store everything"
// baseline: a generic backtracking counter for arbitrary patterns plus
// specialized triangle and k-clique counters used to cross-validate it.
package exact

import (
	"sort"

	"streamcount/internal/graph"
	"streamcount/internal/pattern"
)

// Count returns the number of copies of pattern p in g, where a copy is a
// subgraph of g isomorphic to p (#H in the paper's notation). It counts
// injective embeddings by backtracking and divides by |Aut(p)|.
func Count(g *graph.Graph, p *pattern.Pattern) int64 {
	var embeddings int64
	enumerateEmbeddings(g, p, func([]int64) bool {
		embeddings++
		return true
	})
	return embeddings / p.Automorphisms()
}

// EnumerateCopies calls fn once for every distinct copy of p in g with the
// copy's vertex images (indexed by pattern vertex). Distinct copies are
// distinguished by their edge sets; for each copy, fn receives one arbitrary
// embedding. fn returns false to stop early. Intended for small graphs (the
// sampler-uniformity experiments); cost grows with the number of embeddings.
func EnumerateCopies(g *graph.Graph, p *pattern.Pattern, fn func(map1 []int64) bool) {
	seen := make(map[string]bool)
	enumerateEmbeddings(g, p, func(m []int64) bool {
		key := CopyKey(p, m)
		if seen[key] {
			return true
		}
		seen[key] = true
		cp := make([]int64, len(m))
		copy(cp, m)
		return fn(cp)
	})
}

// CopyKey returns a canonical string key identifying the copy of p given by
// the embedding m (pattern vertex i -> graph vertex m[i]): the sorted list
// of the copy's edges.
func CopyKey(p *pattern.Pattern, m []int64) string {
	edges := make([][2]int64, 0, p.M())
	for _, e := range p.Edges() {
		u, v := m[e[0]], m[e[1]]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, [2]int64{u, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	buf := make([]byte, 0, len(edges)*10)
	for _, e := range edges {
		buf = appendInt(buf, e[0])
		buf = append(buf, ',')
		buf = appendInt(buf, e[1])
		buf = append(buf, ';')
	}
	return string(buf)
}

func appendInt(b []byte, x int64) []byte {
	if x == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for x > 0 {
		i--
		tmp[i] = byte('0' + x%10)
		x /= 10
	}
	return append(b, tmp[i:]...)
}

// enumerateEmbeddings calls fn for every injective embedding of p into g
// (every edge of p mapped onto an edge of g). fn returns false to stop.
func enumerateEmbeddings(g *graph.Graph, p *pattern.Pattern, fn func(m []int64) bool) {
	order := embedOrder(p)
	n := p.N()
	m := make([]int64, n)
	used := make(map[int64]bool, n)
	stopped := false

	var rec func(step int)
	rec = func(step int) {
		if stopped {
			return
		}
		if step == n {
			if !fn(m) {
				stopped = true
			}
			return
		}
		pv := order[step]
		// Candidate source: neighbors of an already-mapped pattern neighbor
		// if one exists (massively prunes), else all vertices.
		var anchor int64 = -1
		for _, prev := range order[:step] {
			if p.HasEdge(pv, prev) {
				anchor = m[prev]
				break
			}
		}
		try := func(gv int64) {
			if used[gv] || g.Degree(gv) < int64(p.Degree(pv)) {
				return
			}
			for _, prev := range order[:step] {
				if p.HasEdge(pv, prev) && !g.HasEdge(gv, m[prev]) {
					return
				}
			}
			m[pv] = gv
			used[gv] = true
			rec(step + 1)
			delete(used, gv)
		}
		if anchor >= 0 {
			for _, gv := range g.Neighbors(anchor) {
				try(gv)
				if stopped {
					return
				}
			}
		} else {
			for gv := int64(0); gv < g.N(); gv++ {
				try(gv)
				if stopped {
					return
				}
			}
		}
	}
	rec(0)
}

// embedOrder returns a pattern-vertex ordering where each vertex after the
// first of its component is adjacent to an earlier vertex (a connectivity
// order), starting from a maximum-degree vertex of each component.
func embedOrder(p *pattern.Pattern) []int {
	n := p.N()
	placed := make([]bool, n)
	var order []int
	for len(order) < n {
		// Pick an unplaced vertex adjacent to a placed one, preferring the
		// one with most placed neighbors, then highest degree.
		best, bestScore, bestDeg := -1, -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			score := 0
			for w := 0; w < n; w++ {
				if placed[w] && p.HasEdge(v, w) {
					score++
				}
			}
			d := p.Degree(v)
			if score > bestScore || (score == bestScore && d > bestDeg) {
				best, bestScore, bestDeg = v, score, d
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order
}

// Triangles counts triangles with the compact-forward algorithm (Latapy,
// TCS 2008): orient every edge from the ≺_G-smaller to the ≺_G-larger
// endpoint, so each triangle a ≺ b ≺ c is the one out-path a→b→c whose end
// is also an out-neighbor of a. For each v it marks v's out-neighbors, then
// counts the marked out-neighbors of each of them: no edge-set probe per
// wedge. Under ≺_G every out-degree is at most √(2m), so this runs in
// O(m^{3/2}).
func Triangles(g *graph.Graph) int64 {
	n := g.N()
	// The orientation in CSR form: v's out-neighbors are out[start[v]:start[v+1]].
	start := make([]int64, n+1)
	out := make([]int64, 0, g.M())
	for v := int64(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if g.Less(v, w) {
				out = append(out, w)
			}
		}
		start[v+1] = int64(len(out))
	}
	marked := make([]bool, n)
	var count int64
	for v := int64(0); v < n; v++ {
		vOut := out[start[v]:start[v+1]]
		for _, w := range vOut {
			marked[w] = true
		}
		for _, w := range vOut {
			for _, x := range out[start[w]:start[w+1]] {
				if marked[x] {
					count++
				}
			}
		}
		for _, w := range vOut {
			marked[w] = false
		}
	}
	return count
}

// Cliques counts r-cliques using a degeneracy orientation: every vertex has
// at most λ out-neighbors, and cliques are enumerated recursively inside
// out-neighborhoods, giving O(m·λ^{r-2}) time — the same quantity that
// governs the ERS space bound.
func Cliques(g *graph.Graph, r int) int64 {
	if r < 1 {
		return 0
	}
	if r == 1 {
		return g.N()
	}
	if r == 2 {
		return g.M()
	}
	_, order := graph.Degeneracy(g)
	out := graph.OrientByOrder(g, order)
	var count int64
	// rec extends a partial clique of `depth` vertices; cands are the common
	// neighbors (later in the degeneracy order) of all chosen vertices.
	var rec func(cands []int64, depth int)
	rec = func(cands []int64, depth int) {
		if depth == r {
			count++
			return
		}
		if len(cands) < r-depth {
			return
		}
		for i, v := range cands {
			// Intersect remaining candidates with neighbors of v; restrict
			// to indices > i so each clique is counted once.
			var next []int64
			for _, w := range cands[i+1:] {
				if g.HasEdge(v, w) {
					next = append(next, w)
				}
			}
			rec(next, depth+1)
		}
	}
	for v := int64(0); v < g.N(); v++ {
		rec(out[v], 1)
	}
	return count
}

// CliquesContaining counts the r-cliques of g that contain all vertices of
// the given (clique) prefix. It is used to validate the ERS activeness
// statistics. Returns 0 if the prefix itself is not a clique.
func CliquesContaining(g *graph.Graph, r int, prefix []int64) int64 {
	for i := 0; i < len(prefix); i++ {
		for j := i + 1; j < len(prefix); j++ {
			if !g.HasEdge(prefix[i], prefix[j]) {
				return 0
			}
		}
	}
	if len(prefix) > r {
		return 0
	}
	if len(prefix) == r {
		return 1
	}
	// Candidates: common neighbors of the prefix.
	var cands []int64
	in := make(map[int64]bool, len(prefix))
	for _, v := range prefix {
		in[v] = true
	}
	for v := int64(0); v < g.N(); v++ {
		if in[v] {
			continue
		}
		ok := true
		for _, u := range prefix {
			if !g.HasEdge(u, v) {
				ok = false
				break
			}
		}
		if ok {
			cands = append(cands, v)
		}
	}
	need := r - len(prefix)
	var count int64
	var rec func(start, depth int, chosen []int64)
	rec = func(start, depth int, chosen []int64) {
		if depth == need {
			count++
			return
		}
		for i := start; i < len(cands); i++ {
			v := cands[i]
			ok := true
			for _, u := range chosen {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				rec(i+1, depth+1, append(chosen, v))
			}
		}
	}
	rec(0, 0, nil)
	return count
}
