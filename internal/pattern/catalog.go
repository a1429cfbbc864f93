package pattern

import "fmt"

// Triangle returns K3 (ρ = 3/2).
func Triangle() *Pattern { return CycleGraph(3) }

// CycleGraph returns the cycle C_k for k >= 3 (ρ(C_{2t+1}) = t + 1/2,
// ρ(C_{2t}) = t).
func CycleGraph(k int) *Pattern {
	edges := make([][2]int, k)
	for i := 0; i < k; i++ {
		edges[i] = [2]int{i, (i + 1) % k}
	}
	return MustNew(fmt.Sprintf("C%d", k), k, edges)
}

// Clique returns the complete graph K_r (ρ(K_r) = r/2).
func Clique(r int) *Pattern {
	var edges [][2]int
	for u := 0; u < r; u++ {
		for v := u + 1; v < r; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return MustNew(fmt.Sprintf("K%d", r), r, edges)
}

// Star returns the star S_k with k petals: center 0 joined to 1..k
// (ρ(S_k) = k).
func Star(k int) *Pattern {
	edges := make([][2]int, k)
	for i := 1; i <= k; i++ {
		edges[i-1] = [2]int{0, i}
	}
	return MustNew(fmt.Sprintf("S%d", k), k+1, edges)
}

// Path returns the path P_k on k vertices (k-1 edges).
func Path(k int) *Pattern {
	edges := make([][2]int, k-1)
	for i := 0; i < k-1; i++ {
		edges[i] = [2]int{i, i + 1}
	}
	return MustNew(fmt.Sprintf("P%d", k), k, edges)
}

// Paw returns the paw graph: a triangle {0,1,2} with a pendant vertex 3
// attached to 0 (ρ = 2). The paw exercises the multiplicity correction: a
// single decomposition tuple can witness several copies.
func Paw() *Pattern {
	return MustNew("paw", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
}

// Diamond returns K4 minus one edge (ρ = 2).
func Diamond() *Pattern {
	return MustNew("diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})
}

// Butterfly returns two triangles sharing one vertex (vertex 0). Its
// optimal decomposition mixes a cycle and a star: C3 + S1, ρ = 5/2.
func Butterfly() *Pattern {
	return MustNew("butterfly", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}})
}

// Bull returns a triangle {0,1,2} with pendants 3–1 and 4–2. The bull is a
// case where no decomposition may use the triangle (the pendants would be
// stranded): ρ = 3 via S2 + S1.
func Bull() *Pattern {
	return MustNew("bull", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}})
}

// House returns the house graph: the 4-cycle 0-1-2-3 with a roof vertex 4
// adjacent to 0 and 1 (ρ = 5/2: the C5 0-3-2-1-4 exists? the house contains
// a spanning 5-cycle 4-0-3-2-1, giving ρ = 5/2).
func House() *Pattern {
	return MustNew("house", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}})
}

// CompleteBipartite returns K_{a,b} with the a-side 0..a-1.
func CompleteBipartite(a, b int) *Pattern {
	var edges [][2]int
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, [2]int{i, a + j})
		}
	}
	return MustNew(fmt.Sprintf("K%d,%d", a, b), a+b, edges)
}

// ByName resolves a pattern by its catalog name: "triangle", "C<k>",
// "K<r>", "S<k>", "P<k>", "paw", "diamond", "butterfly", "bull", "house",
// "K<a>,<b>".
func ByName(name string) (*Pattern, error) {
	switch name {
	case "triangle":
		return Triangle(), nil
	case "paw":
		return Paw(), nil
	case "diamond":
		return Diamond(), nil
	case "butterfly":
		return Butterfly(), nil
	case "bull":
		return Bull(), nil
	case "house":
		return House(), nil
	}
	var a, b int
	if _, err := fmt.Sscanf(name, "K%d,%d", &a, &b); err == nil && fmt.Sprintf("K%d,%d", a, b) == name {
		if a < 1 || b < 1 || a+b > MaxVertices {
			return nil, fmt.Errorf("pattern: K%d,%d out of range", a, b)
		}
		return CompleteBipartite(a, b), nil
	}
	var k int
	if _, err := fmt.Sscanf(name, "C%d", &k); err == nil && fmt.Sprintf("C%d", k) == name {
		if k < 3 || k > MaxVertices {
			return nil, fmt.Errorf("pattern: cycle length %d out of range [3,%d]", k, MaxVertices)
		}
		return CycleGraph(k), nil
	}
	if _, err := fmt.Sscanf(name, "K%d", &k); err == nil && fmt.Sprintf("K%d", k) == name {
		if k < 2 || k > MaxVertices {
			return nil, fmt.Errorf("pattern: clique size %d out of range [2,%d]", k, MaxVertices)
		}
		return Clique(k), nil
	}
	if _, err := fmt.Sscanf(name, "S%d", &k); err == nil && fmt.Sprintf("S%d", k) == name {
		if k < 1 || k+1 > MaxVertices {
			return nil, fmt.Errorf("pattern: star petals %d out of range [1,%d]", k, MaxVertices-1)
		}
		return Star(k), nil
	}
	if _, err := fmt.Sscanf(name, "P%d", &k); err == nil && fmt.Sprintf("P%d", k) == name {
		if k < 2 || k > MaxVertices {
			return nil, fmt.Errorf("pattern: path length %d out of range [2,%d]", k, MaxVertices)
		}
		return Path(k), nil
	}
	return nil, fmt.Errorf("pattern: unknown pattern %q", name)
}
