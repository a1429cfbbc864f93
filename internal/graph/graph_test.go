package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeCanon(t *testing.T) {
	e := Edge{U: 5, V: 2}
	if c := e.Canon(); c.U != 2 || c.V != 5 {
		t.Errorf("Canon=%v", c)
	}
	if e.Canon() != e.Reverse().Canon() {
		t.Error("canon should be orientation-invariant")
	}
	if !(Edge{U: 3, V: 3}).IsLoop() {
		t.Error("IsLoop")
	}
}

// TestEdgeKeyRoundTrip: EdgeKey packs either orientation of an edge into the
// same key, KeyEdge gives back the canonical edge, and the packing holds at
// the corners of the 32-bit vertex range.
func TestEdgeKeyRoundTrip(t *testing.T) {
	const top = MaxVertices - 1
	for _, c := range []struct {
		e   Edge
		key uint64
	}{
		{Edge{0, 0}, 0},
		{Edge{0, top}, top},
		{Edge{top - 1, top}, (top-1)<<32 | top},
		{Edge{7, 3}, 3<<32 | 7},
	} {
		for _, e := range []Edge{c.e, c.e.Reverse()} {
			if got := EdgeKey(e.U, e.V); got != c.key {
				t.Errorf("EdgeKey(%d, %d) = %#x, want %#x", e.U, e.V, got, c.key)
			}
		}
		if got := KeyEdge(c.key); got != c.e.Canon() {
			t.Errorf("KeyEdge(%#x) = %v, want %v", c.key, got, c.e.Canon())
		}
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(5)
	if !g.AddEdge(0, 1) {
		t.Error("first add should succeed")
	}
	if g.AddEdge(1, 0) {
		t.Error("duplicate (reversed) add should fail")
	}
	if g.AddEdge(2, 2) {
		t.Error("self-loop add should fail")
	}
	if g.M() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("m=%d deg0=%d deg1=%d", g.M(), g.Degree(0), g.Degree(1))
	}
	if !g.RemoveEdge(1, 0) {
		t.Error("remove should succeed")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("second remove should fail")
	}
	if g.M() != 0 || g.Degree(0) != 0 {
		t.Errorf("after remove: m=%d deg0=%d", g.M(), g.Degree(0))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestValidateProperty(t *testing.T) {
	// Random add/remove sequences always leave a consistent graph.
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(12)
		for _, op := range ops {
			u := int64(op) % 12
			v := int64(op>>4) % 12
			if rng.Intn(3) == 0 {
				g.RemoveEdge(u, v)
			} else {
				g.AddEdge(u, v)
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	s, err := g.Subgraph([]int64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 || s.M() != 3 {
		t.Errorf("subgraph n=%d m=%d, want 3,3", s.N(), s.M())
	}
	if _, err := g.Subgraph([]int64{0, 0}); err == nil {
		t.Error("duplicate vertex should fail")
	}
	if _, err := g.Subgraph([]int64{99}); err == nil {
		t.Error("out-of-range vertex should fail")
	}
}

func TestLessOrder(t *testing.T) {
	// Definition 12: by degree, ties by ID.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	// degrees: 0->3, 1->2, 2->2, 3->1
	if !g.Less(3, 0) {
		t.Error("deg(3)=1 < deg(0)=3")
	}
	if !g.Less(1, 2) {
		t.Error("tie broken by ID: 1 < 2")
	}
	if g.Less(2, 1) {
		t.Error("2 should not precede 1")
	}
	if got := g.MinVertex([]int64{0, 1, 2, 3}); got != 3 {
		t.Errorf("MinVertex=%d, want 3", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("clone not independent: g.m=%d c.m=%d", g.M(), c.M())
	}
}

func TestCloneKeepsNeighborOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(40)
	for i := 0; i < 600; i++ {
		u, v := rng.Int63n(40), rng.Int63n(40)
		if rng.Intn(4) == 0 {
			g.RemoveEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}
	}
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.M() != g.M() {
		t.Fatalf("clone m=%d, want %d", c.M(), g.M())
	}
	for v := int64(0); v < g.N(); v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("vertex %d: clone degree %d, want %d", v, c.Degree(v), g.Degree(v))
		}
		for i := int64(0); i < g.Degree(v); i++ {
			if c.Neighbor(v, i) != g.Neighbor(v, i) {
				t.Fatalf("Neighbor(%d, %d): clone %d, source %d", v, i, c.Neighbor(v, i), g.Neighbor(v, i))
			}
		}
	}
}

func TestNewPanicsBeyondMaxVertices(t *testing.T) {
	for _, n := range []int64{-1, MaxVertices + 1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "4294967296") {
					t.Errorf("New(%d): panic %q, want one naming the bound", n, msg)
				}
			}()
			New(n)
		}()
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 2)
	g.AddEdge(4, 0)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip n=%d m=%d", got.N(), got.M())
	}
	for _, e := range g.Edges() {
		if !got.HasEdge(e.U, e.V) {
			t.Errorf("missing %v", e)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"x y\n",          // bad header
		"3 1\n0 5\n",     // out of range
		"3 1\nnope\n",    // bad edge line
		"-1 0\n",         // negative vertex count
		"4294967297 0\n", // more vertices than edge keys can pack
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
	// Comments and blanks are fine.
	g, err := ReadEdgeList(strings.NewReader("# hello\n\n2 1\n0 1\n"))
	if err != nil || g.M() != 1 {
		t.Errorf("comment handling: %v", err)
	}
}

func TestDegeneracyProperty(t *testing.T) {
	// For every graph: max vertex out-degree under the degeneracy order is
	// exactly λ, and λ <= max degree.
	f := func(edges []uint16) bool {
		g := New(16)
		for _, e := range edges {
			g.AddEdge(int64(e%16), int64((e>>4)%16))
		}
		lambda, order := Degeneracy(g)
		if lambda > g.MaxDegree() {
			return false
		}
		out := OrientByOrder(g, order)
		var maxOut int64
		for v := int64(0); v < g.N(); v++ {
			if int64(len(out[v])) > maxOut {
				maxOut = int64(len(out[v]))
			}
		}
		return maxOut <= lambda
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDegeneracyEmptyGraph(t *testing.T) {
	lambda, order := Degeneracy(New(0))
	if lambda != 0 || order != nil {
		t.Errorf("empty graph: λ=%d order=%v", lambda, order)
	}
	lambda, order = Degeneracy(New(5))
	if lambda != 0 || len(order) != 5 {
		t.Errorf("edgeless graph: λ=%d |order|=%d", lambda, len(order))
	}
}
