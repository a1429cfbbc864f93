package pattern

import "fmt"

// DecompositionCount computes f_T(H): the number of ordered tuples of
// vertex-disjoint structures in H matching the decomposition's type profile
// (cycle slots of the given lengths, then star slots of the given petal
// counts) that together cover V(H).
//
// A cycle structure is an undirected simple cycle of the required length in
// H; a star structure is a (center, petal-set) pair with every center–petal
// pair an edge of H. Each structure corresponds to exactly one canonical
// sampler outcome (Definitions 13 and 14 fix one sequence per structure), so
// f_T(H) is the number of sampler outcomes that witness a fixed copy of H.
// It is the correction coin of Algorithm 9 (SampleSubgraph, line 15).
func DecompositionCount(p *Pattern, d Decomposition) int64 {
	lengths := d.CycleLengths()
	petals := d.StarPetals()
	full := (1 << uint(p.n)) - 1
	adj := func(a, b int) bool { return p.HasEdge(a, b) }
	return countTuples(p.n, adj, lengths, petals, 0, full)
}

// countTuples counts ordered tuples of disjoint structures drawn from the
// graph on n vertices given by adj, filling cycle slots lengths[ci:] then
// star slots petals, using only vertices in mask and covering mask exactly.
func countTuples(n int, adj func(a, b int) bool, lengths, petals []int, ci int, mask int) int64 {
	if ci < len(lengths) {
		var total int64
		forEachCycle(n, adj, mask, lengths[ci], func(verts []int) {
			used := 0
			for _, v := range verts {
				used |= 1 << uint(v)
			}
			total += countTuples(n, adj, lengths, petals, ci+1, mask&^used)
		})
		return total
	}
	return countStarTuples(n, adj, petals, 0, mask)
}

func countStarTuples(n int, adj func(a, b int) bool, petals []int, si, mask int) int64 {
	if si == len(petals) {
		if mask == 0 {
			return 1
		}
		return 0
	}
	k := petals[si]
	var total int64
	for center := 0; center < n; center++ {
		if mask&(1<<uint(center)) == 0 {
			continue
		}
		nbr := 0
		for w := 0; w < n; w++ {
			if w != center && mask&(1<<uint(w)) != 0 && adj(center, w) {
				nbr |= 1 << uint(w)
			}
		}
		forEachSubsetOfSize(nbr, k, func(sub int) {
			used := sub | 1<<uint(center)
			total += countStarTuples(n, adj, petals, si+1, mask&^used)
		})
	}
	return total
}

// forEachCycle invokes fn once per distinct undirected simple cycle of the
// given length with all vertices in mask. The representative sequence starts
// at the cycle's lowest vertex and has its second vertex smaller than its
// last, so each undirected cycle is produced exactly once.
func forEachCycle(n int, adj func(a, b int) bool, mask, length int, fn func(verts []int)) {
	for start := 0; start < n; start++ {
		if mask&(1<<uint(start)) == 0 {
			continue
		}
		path := []int{start}
		used := 1 << uint(start)
		var dfs func()
		dfs = func() {
			last := path[len(path)-1]
			if len(path) == length {
				if adj(last, start) && path[1] < last {
					fn(path)
				}
				return
			}
			for w := start + 1; w < n; w++ { // start is the minimum vertex
				bit := 1 << uint(w)
				if mask&bit != 0 && used&bit == 0 && adj(last, w) {
					path = append(path, w)
					used |= bit
					dfs()
					used &^= bit
					path = path[:len(path)-1]
				}
			}
		}
		dfs()
	}
}

// forEachSubsetOfSize invokes fn for every subset of set (a bitmask) with
// exactly k bits.
func forEachSubsetOfSize(set, k int, fn func(sub int)) {
	if k == 0 {
		fn(0)
		return
	}
	var rec func(remaining, chosen, need int)
	rec = func(remaining, chosen, need int) {
		if need == 0 {
			fn(chosen)
			return
		}
		for remaining != 0 {
			if popcount(remaining) < need {
				return
			}
			bit := remaining & -remaining
			remaining &^= bit
			rec(remaining, chosen|bit, need-1)
		}
	}
	rec(set, 0, k)
}

// enumerateCopies returns the distinct edge-set keys of all copies of p on
// the full host vertex set {0..p.N()-1} under adjacency adj.
func enumerateCopies(p *Pattern, adj func(a, b int) bool) map[uint64]bool {
	n := p.n
	out := make(map[uint64]bool)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var key uint64
			for _, e := range p.edges {
				key |= pairBit(perm[e[0]], perm[e[1]], n)
			}
			out[key] = true
			return
		}
		for c := 0; c < n; c++ {
			if used[c] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) && !adj(c, perm[j]) {
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
	return out
}

// pairBit maps the unordered pair (a,b) on n vertices to a single bit in a
// uint64 key. Requires n <= MaxVertices so that n(n-1)/2 <= 45 < 64.
func pairBit(a, b, n int) uint64 {
	if a > b {
		a, b = b, a
	}
	idx := a*n - a*(a+1)/2 + (b - a - 1)
	return 1 << uint(idx)
}

// MaxCopiesPerTuple computes c_max(H): the maximum, over all decomposition
// tuples t of the given profile on |V(H)| labelled vertices, of the number
// of copies of H (within the complete host) containing all of t's edges.
// The uniform sampler (Algorithm 10 adaptation) rejection-samples with this
// bound so that every copy is returned with identical probability. For
// cycles, cliques and stars c_max = 1, recovering the paper's behaviour.
func MaxCopiesPerTuple(p *Pattern, d Decomposition) int64 {
	n := p.n
	completeAdj := func(a, b int) bool { return a != b }
	copies := enumerateCopies(p, completeAdj)
	full := (1 << uint(n)) - 1

	var best int64
	var visitTuples func(lengths, petals []int, mask int, edges [][2]int)
	visitTuples = func(lengths, petals []int, mask int, edges [][2]int) {
		if len(lengths) > 0 {
			forEachCycle(n, completeAdj, mask, lengths[0], func(verts []int) {
				used := 0
				ext := edges
				for i, v := range verts {
					used |= 1 << uint(v)
					ext = append(ext, [2]int{v, verts[(i+1)%len(verts)]})
				}
				visitTuples(lengths[1:], petals, mask&^used, ext)
				// ext aliases edges' backing array; lengths of edges restore
				// naturally since we re-slice on each call.
			})
			return
		}
		if len(petals) > 0 {
			k := petals[0]
			for center := 0; center < n; center++ {
				if mask&(1<<uint(center)) == 0 {
					continue
				}
				nbr := mask &^ (1 << uint(center))
				forEachSubsetOfSize(nbr, k, func(sub int) {
					used := sub | 1<<uint(center)
					ext := edges
					for w := 0; w < n; w++ {
						if sub&(1<<uint(w)) != 0 {
							ext = append(ext, [2]int{center, w})
						}
					}
					visitTuples(nil, petals[1:], mask&^used, ext)
				})
			}
			return
		}
		if mask != 0 {
			return
		}
		var tupleKey uint64
		for _, e := range edges {
			tupleKey |= pairBit(e[0], e[1], n)
		}
		var cnt int64
		for key := range copies {
			if key&tupleKey == tupleKey {
				cnt++
			}
		}
		if cnt > best {
			best = cnt
		}
	}
	visitTuples(d.CycleLengths(), d.StarPetals(), full, nil)
	if best == 0 {
		panic(fmt.Sprintf("pattern: no decomposition tuple of profile %s fits %s", d, p.name))
	}
	return best
}
