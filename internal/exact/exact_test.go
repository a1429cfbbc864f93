package exact

import (
	"math/rand"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/pattern"
)

func TestCountTrianglesKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K3", gen.Complete(3), 1},
		{"K4", gen.Complete(4), 4},
		{"K5", gen.Complete(5), 10},
		{"C5", gen.Cycle(5), 0},
		{"grid3x3", gen.Grid(3, 3), 0},
	}
	tri := pattern.Triangle()
	for _, c := range cases {
		if got := Count(c.g, tri); got != c.want {
			t.Errorf("%s: Count(triangle)=%d, want %d", c.name, got, c.want)
		}
		if got := Triangles(c.g); got != c.want {
			t.Errorf("%s: Triangles=%d, want %d", c.name, got, c.want)
		}
	}
}

func TestCountCliquesKnown(t *testing.T) {
	// #K_r in K_n is C(n, r).
	binom := func(n, r int64) int64 {
		if r > n {
			return 0
		}
		res := int64(1)
		for i := int64(0); i < r; i++ {
			res = res * (n - i) / (i + 1)
		}
		return res
	}
	for n := int64(3); n <= 7; n++ {
		g := gen.Complete(n)
		for r := 3; r <= 6; r++ {
			want := binom(n, int64(r))
			if got := Cliques(g, r); got != want {
				t.Errorf("K%d: Cliques(%d)=%d, want %d", n, r, got, want)
			}
			if r <= int(n) && r <= 6 {
				if got := Count(g, pattern.Clique(r)); got != want {
					t.Errorf("K%d: Count(K%d)=%d, want %d", n, r, got, want)
				}
			}
		}
	}
}

func TestCliquesSmallCases(t *testing.T) {
	g := gen.Complete(5)
	if got := Cliques(g, 1); got != 5 {
		t.Errorf("Cliques(1)=%d, want 5", got)
	}
	if got := Cliques(g, 2); got != 10 {
		t.Errorf("Cliques(2)=%d, want 10", got)
	}
	if got := Cliques(g, 0); got != 0 {
		t.Errorf("Cliques(0)=%d, want 0", got)
	}
	if got := Cliques(g, 6); got != 0 {
		t.Errorf("Cliques(6)=%d, want 0", got)
	}
}

func TestCountCyclesKnown(t *testing.T) {
	// #C_k in K_n is C(n,k) * (k-1)!/2.
	g := gen.Complete(6)
	cases := []struct {
		k    int
		want int64
	}{
		{3, 20}, // C(6,3)*1
		{4, 45}, // C(6,4)*3
		{5, 72}, // C(6,5)*12
		{6, 60}, // C(6,6)*60
	}
	for _, c := range cases {
		if got := Count(g, pattern.CycleGraph(c.k)); got != c.want {
			t.Errorf("#C%d in K6 = %d, want %d", c.k, got, c.want)
		}
	}
	// A single cycle contains exactly itself.
	if got := Count(gen.Cycle(7), pattern.CycleGraph(7)); got != 1 {
		t.Errorf("#C7 in C7 = %d, want 1", got)
	}
	if got := Count(gen.Cycle(8), pattern.CycleGraph(7)); got != 0 {
		t.Errorf("#C7 in C8 = %d, want 0", got)
	}
}

func TestCountStarsKnown(t *testing.T) {
	// #S_k in a graph = sum over v of C(deg(v), k) for k >= 2; S_1 is a
	// single edge (its automorphism swaps center and petal), so #S_1 = m.
	g := gen.Grid(3, 4)
	if got := Count(g, pattern.Star(1)); got != g.M() {
		t.Errorf("#S1 in grid = %d, want m=%d", got, g.M())
	}
	for k := 2; k <= 3; k++ {
		var want int64
		for v := int64(0); v < g.N(); v++ {
			d := g.Degree(v)
			// C(d, k)
			c := int64(1)
			for i := int64(0); i < int64(k); i++ {
				c = c * (d - i) / (i + 1)
			}
			if d >= int64(k) {
				want += c
			}
		}
		if got := Count(g, pattern.Star(k)); got != want {
			t.Errorf("#S%d in grid = %d, want %d", k, got, want)
		}
	}
}

func TestCountPawAndDiamond(t *testing.T) {
	// In K4: paws = 4 triangles * 3 pendant attach points... but the pendant
	// vertex must be outside the triangle: each triangle has 1 remaining
	// vertex attachable to 3 triangle vertices = 4*3 = 12.
	g := gen.Complete(4)
	if got := Count(g, pattern.Paw()); got != 12 {
		t.Errorf("#paw in K4 = %d, want 12", got)
	}
	// Diamonds in K4: choose the non-edge pair's complement: each of the 6
	// edges removed leaves a diamond; diamond copies = C(4,2) pairs for the
	// degree-3 pair... = 6.
	if got := Count(g, pattern.Diamond()); got != 6 {
		t.Errorf("#diamond in K4 = %d, want 6", got)
	}
}

// TestCrossValidateGenericVsSpecialized holds the triangle and clique
// counters to the generic backtracking counter on ER, BA and planted-clique
// graphs. Every graph has an edge whose endpoints tie in degree, so the
// ID tie-break of ≺_G decides part of the triangle counter's orientation.
func TestCrossValidateGenericVsSpecialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var graphs []*graph.Graph
	for trial := 0; trial < 5; trial++ {
		graphs = append(graphs, gen.ErdosRenyiGNM(rng, 40, 150))
	}
	graphs = append(graphs,
		gen.BarabasiAlbert(rng, 60, 3),
		gen.PlantCliques(rng, gen.BarabasiAlbert(rng, 60, 2), 4, 5),
		gen.PlantCliques(rng, gen.ErdosRenyiGNM(rng, 50, 100), 5, 3),
		gen.Complete(7))
	for trial, g := range graphs {
		tie := false
		for v := int64(0); v < g.N(); v++ {
			for _, w := range g.Neighbors(v) {
				tie = tie || g.Degree(v) == g.Degree(w)
			}
		}
		if !tie {
			t.Errorf("trial %d: no edge joins two vertices of equal degree", trial)
		}
		if got, want := Count(g, pattern.Triangle()), Triangles(g); got != want {
			t.Errorf("trial %d: generic triangles %d != specialized %d", trial, got, want)
		}
		for r := 3; r <= 5; r++ {
			if got, want := Count(g, pattern.Clique(r)), Cliques(g, r); got != want {
				t.Errorf("trial %d: generic K%d %d != specialized %d", trial, r, got, want)
			}
		}
	}
}

func TestEnumerateCopies(t *testing.T) {
	g := gen.Complete(4)
	tri := pattern.Triangle()
	var copies int64
	EnumerateCopies(g, tri, func(m []int64) bool {
		copies++
		// Verify the embedding is a real triangle.
		if !g.HasEdge(m[0], m[1]) || !g.HasEdge(m[1], m[2]) || !g.HasEdge(m[0], m[2]) {
			t.Errorf("embedding %v is not a triangle", m)
		}
		return true
	})
	if copies != 4 {
		t.Errorf("EnumerateCopies found %d triangles in K4, want 4", copies)
	}
	// Early stop.
	copies = 0
	EnumerateCopies(g, tri, func(m []int64) bool {
		copies++
		return false
	})
	if copies != 1 {
		t.Errorf("early stop visited %d copies, want 1", copies)
	}
}

func TestCliquesContaining(t *testing.T) {
	g := gen.Complete(6)
	// K4s containing a fixed vertex: C(5,3) = 10.
	if got := CliquesContaining(g, 4, []int64{0}); got != 10 {
		t.Errorf("K4s containing {0} = %d, want 10", got)
	}
	// K4s containing a fixed edge: C(4,2) = 6.
	if got := CliquesContaining(g, 4, []int64{0, 1}); got != 6 {
		t.Errorf("K4s containing {0,1} = %d, want 6", got)
	}
	// Full clique prefix.
	if got := CliquesContaining(g, 4, []int64{0, 1, 2, 3}); got != 1 {
		t.Errorf("K4s containing a K4 = %d, want 1", got)
	}
	// Non-clique prefix.
	h := gen.Cycle(5)
	if got := CliquesContaining(h, 3, []int64{0, 2}); got != 0 {
		t.Errorf("non-adjacent prefix should yield 0, got %d", got)
	}
}

func TestCountDisconnectedPattern(t *testing.T) {
	// 2K2 (two disjoint edges) in K4: 3 perfect matchings.
	p := pattern.MustNew("2K2", 4, [][2]int{{0, 1}, {2, 3}})
	if got := Count(gen.Complete(4), p); got != 3 {
		t.Errorf("#2K2 in K4 = %d, want 3", got)
	}
	// In P3 (path on 3 vertices): no two disjoint edges.
	if got := Count(gen.Grid(1, 3), p); got != 0 {
		t.Errorf("#2K2 in P3 = %d, want 0", got)
	}
}

func TestDegeneracyKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K5", gen.Complete(5), 4},
		{"C7", gen.Cycle(7), 2},
		{"grid4x4", gen.Grid(4, 4), 2},
		{"star", starGraph(9), 1},
	}
	for _, c := range cases {
		lambda, order := graph.Degeneracy(c.g)
		if lambda != c.want {
			t.Errorf("%s: degeneracy=%d, want %d", c.name, lambda, c.want)
		}
		if int64(len(order)) != c.g.N() {
			t.Errorf("%s: order has %d vertices, want %d", c.name, len(order), c.g.N())
		}
		// Check the defining property of the ordering: each vertex has at
		// most λ neighbors later in the order.
		out := graph.OrientByOrder(c.g, order)
		for v := int64(0); v < c.g.N(); v++ {
			if int64(len(out[v])) > lambda {
				t.Errorf("%s: vertex %d has %d out-neighbors > λ=%d", c.name, v, len(out[v]), lambda)
			}
		}
	}
}

func starGraph(petals int64) *graph.Graph {
	g := graph.New(petals + 1)
	for i := int64(1); i <= petals; i++ {
		g.AddEdge(0, i)
	}
	return g
}

func TestBarabasiAlbertDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int64{2, 3, 5} {
		g := gen.BarabasiAlbert(rng, 200, k)
		lambda, _ := graph.Degeneracy(g)
		if lambda != k {
			t.Errorf("BA(k=%d): degeneracy=%d, want %d", k, lambda, k)
		}
	}
}

func BenchmarkTriangles(b *testing.B) {
	g := gen.ErdosRenyiGNM(rand.New(rand.NewSource(1)), 2000, 100000)
	for b.Loop() {
		Triangles(g)
	}
}
