package stream

import (
	"math/rand"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
)

func TestNewSliceValidation(t *testing.T) {
	e := func(u, v int64, op Op) Update { return Update{Edge: graph.Edge{U: u, V: v}, Op: op} }
	cases := []struct {
		name string
		n    int64
		ups  []Update
		ok   bool
	}{
		{"ok", 3, []Update{e(0, 1, Insert), e(1, 2, Insert)}, true},
		{"loop", 3, []Update{e(1, 1, Insert)}, false},
		{"range", 3, []Update{e(0, 3, Insert)}, false},
		{"badop", 3, []Update{{Edge: graph.Edge{U: 0, V: 1}, Op: 7}}, false},
		{"turnstile", 3, []Update{e(0, 1, Insert), e(0, 1, Delete)}, true},
	}
	for _, c := range cases {
		s, err := NewSlice(c.n, c.ups)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if err == nil && s.Len() != int64(len(c.ups)) {
			t.Errorf("%s: len=%d", c.name, s.Len())
		}
	}
}

func TestInsertOnlyFlag(t *testing.T) {
	g := gen.Cycle(5)
	s := FromGraph(g)
	if !s.InsertOnly() {
		t.Error("FromGraph should be insertion-only")
	}
	rng := rand.New(rand.NewSource(1))
	ts := WithDeletions(g, 0.5, rng)
	if ts.InsertOnly() {
		t.Error("WithDeletions(0.5) should contain deletions")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyiGNM(rng, 30, 80)
	got, err := Materialize(FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() || got.N() != g.N() {
		t.Fatalf("materialized n=%d m=%d, want n=%d m=%d", got.N(), got.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !got.HasEdge(e.U, e.V) {
			t.Errorf("missing edge %v", e)
		}
	}
}

func TestMaterializeTurnstileEqualsFinalGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 25, 60)
	for _, extra := range []float64{0, 0.3, 1.0, 2.0} {
		ts := WithDeletions(g, extra, rng)
		got, err := Materialize(ts)
		if err != nil {
			t.Fatalf("extra=%.1f: %v", extra, err)
		}
		if got.M() != g.M() {
			t.Errorf("extra=%.1f: m=%d, want %d", extra, got.M(), g.M())
		}
		for _, e := range g.Edges() {
			if !got.HasEdge(e.U, e.V) {
				t.Errorf("extra=%.1f: missing %v", extra, e)
			}
		}
	}
}

func TestMaterializeRejectsBadStreams(t *testing.T) {
	e := func(u, v int64, op Op) Update { return Update{Edge: graph.Edge{U: u, V: v}, Op: op} }
	// Delete before insert.
	s, _ := NewSlice(3, []Update{e(0, 1, Delete)})
	if _, err := Materialize(s); err == nil {
		t.Error("deleting an absent edge should fail")
	}
	// Duplicate insert.
	s, _ = NewSlice(3, []Update{e(0, 1, Insert), e(1, 0, Insert)})
	if _, err := Materialize(s); err == nil {
		t.Error("duplicate insert should fail")
	}
}

func TestShuffledPreservesMultisetAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyiGNM(rng, 20, 50)
	ts := WithDeletions(g, 1.0, rng)
	sh := Shuffled(ts, rng)
	if sh.Len() != ts.Len() {
		t.Fatalf("shuffle changed length %d -> %d", ts.Len(), sh.Len())
	}
	got, err := Materialize(sh)
	if err != nil {
		t.Fatalf("shuffled turnstile stream invalid: %v", err)
	}
	if got.M() != g.M() {
		t.Errorf("m=%d, want %d", got.M(), g.M())
	}
	// Insertion-only shuffle keeps the edge multiset.
	is := FromGraph(g)
	shi := Shuffled(is, rng)
	gi, err := Materialize(shi)
	if err != nil {
		t.Fatal(err)
	}
	if gi.M() != g.M() {
		t.Errorf("insert-only shuffle m=%d, want %d", gi.M(), g.M())
	}
}

func TestAdjacencyListOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.ErdosRenyiGNM(rng, 20, 60)
	s := AdjacencyListOrder(g)
	if s.Len() != g.M() {
		t.Fatalf("len=%d, want m=%d", s.Len(), g.M())
	}
	got, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() {
		t.Errorf("materialized m=%d", got.M())
	}
}

func TestCounterCountsPasses(t *testing.T) {
	g := gen.Cycle(4)
	c := NewCounter(FromGraph(g))
	for i := 0; i < 3; i++ {
		if err := c.ForEachBatch(func([]Update) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Passes() != 3 {
		t.Errorf("passes=%d, want 3", c.Passes())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	g := gen.Cycle(3 * DefaultBatchSize)
	s := FromGraph(g)
	seen := 0
	errStop := s.ForEachBatch(func([]Update) error {
		seen++
		if seen == 2 {
			return errSentinel
		}
		return nil
	})
	if errStop != errSentinel || seen != 2 {
		t.Errorf("early stop: err=%v batches seen=%d", errStop, seen)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }
