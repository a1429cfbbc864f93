package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestEdgeSetMatchesMap runs random AddEdge/RemoveEdge/HasEdge sequences
// against a map reference. The vertex universe is small, so vertex 0,
// self-loops (among them (0,0), whose key is the empty-slot mark), repeated
// adds and removes, and every table size from 16 slots up all occur.
func TestEdgeSetMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Int63n(60)
		g := New(n)
		ref := make(map[[2]int64]bool)
		canon := func(u, v int64) [2]int64 { return [2]int64{min(u, v), max(u, v)} }
		for op := 0; op < 3000; op++ {
			u, v := rng.Int63n(n), rng.Int63n(n)
			if rng.Intn(8) == 0 {
				v = u
			}
			switch rng.Intn(3) {
			case 0:
				want := u != v && !ref[canon(u, v)]
				if got := g.AddEdge(u, v); got != want {
					t.Fatalf("seed %d op %d: AddEdge(%d,%d)=%v, want %v", seed, op, u, v, got, want)
				}
				if want {
					ref[canon(u, v)] = true
				}
			case 1:
				want := ref[canon(u, v)]
				if got := g.RemoveEdge(u, v); got != want {
					t.Fatalf("seed %d op %d: RemoveEdge(%d,%d)=%v, want %v", seed, op, u, v, got, want)
				}
				delete(ref, canon(u, v))
			default:
				if got, want := g.HasEdge(u, v), ref[canon(u, v)]; got != want {
					t.Fatalf("seed %d op %d: HasEdge(%d,%d)=%v, want %v", seed, op, u, v, got, want)
				}
			}
		}
		if g.M() != int64(len(ref)) {
			t.Fatalf("seed %d: m=%d, want %d", seed, g.M(), len(ref))
		}
		for u := int64(0); u < n; u++ {
			for v := int64(0); v < n; v++ {
				if got, want := g.HasEdge(u, v), ref[canon(u, v)]; got != want {
					t.Fatalf("seed %d: HasEdge(%d,%d)=%v, want %v", seed, u, v, got, want)
				}
			}
		}
		var want []Edge
		for e := range ref {
			want = append(want, Edge{e[0], e[1]})
		}
		slices.SortFunc(want, func(a, b Edge) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Edges()=%v, want %v", seed, got, want)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	g := New(3)
	if g.HasEdge(0, 0) || g.RemoveEdge(0, 0) || g.AddEdge(0, 0) || g.HasEdge(-1, 0) || g.HasEdge(0, 3) {
		t.Error("self-loops and out-of-range endpoints must never be edges")
	}
}

// TestEdgeSetWrapAround drives a 16-slot table with keys whose probe chains
// start in the last slots and wrap past slot 0, so backward-shift deletion
// has to move keys across the wrap.
func TestEdgeSetWrapAround(t *testing.T) {
	var s edgeSet
	s.grow()
	var pool []uint64
	for u := int64(0); len(pool) < 24; u++ {
		for v := u + 1; v < u+64 && len(pool) < 24; v++ {
			if h := s.home(EdgeKey(u, v)); h >= 13 || h <= 1 {
				pool = append(pool, EdgeKey(u, v))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	wrapped := false
	for round := 0; round < 200; round++ {
		s = edgeSet{}
		s.grow()
		ref := make(map[uint64]bool)
		for op := 0; op < 60; op++ {
			k := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 && s.count < 8 {
				if got := s.insert(k); got == ref[k] {
					t.Fatalf("round %d: insert(%#x)=%v with key present=%v", round, k, got, ref[k])
				}
				ref[k] = true
			} else {
				if got := s.remove(k); got != ref[k] {
					t.Fatalf("round %d: remove(%#x)=%v with key present=%v", round, k, got, ref[k])
				}
				delete(ref, k)
			}
			if len(s.slots) != 16 {
				t.Fatalf("table grew to %d slots", len(s.slots))
			}
			for _, p := range pool {
				if s.has(p) != ref[p] {
					t.Fatalf("round %d op %d: has(%#x)=%v, want %v", round, op, p, s.has(p), ref[p])
				}
			}
			for i, k := range s.slots[:2] {
				if k != 0 && s.home(k) > i+1 {
					wrapped = true
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no probe chain wrapped past the last slot")
	}
}

// FuzzReadEdgeList: on arbitrary bytes ReadEdgeList returns an error or a
// graph that passes Validate and round-trips through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"3 2\n0 1\n1 2\n",
		"# comment\n\n4 9\n0 1\n1 0\n2 2\n3 0\n",
		"-1 0\n",
		"4294967297 0\n",
		"5 1\n0 7\n",
		"2 1\n0 x\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readEdgeList(bytes.NewReader(data), 1<<12)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading %q: %v", written, err)
		}
		if h.N() != g.N() || h.M() != g.M() || !slices.Equal(h.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: n %d→%d, m %d→%d", g.N(), h.N(), g.M(), h.M())
		}
	})
}
