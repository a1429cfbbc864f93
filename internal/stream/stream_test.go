package stream

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
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
	// More vertices than a graph can hold.
	s, _ = NewSlice(graph.MaxVertices+1, nil)
	if _, err := Materialize(s); err == nil {
		t.Error("a vertex count above graph.MaxVertices should fail")
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

// cycleSource draws its values in turn, so shuffle priorities tie in
// groups and the order within a group is the tie-break alone.
type cycleSource struct {
	vals []int64
	i    int
}

func (c *cycleSource) Int63() int64 { c.i++; return c.vals[(c.i-1)%len(c.vals)] }
func (c *cycleSource) Seed(int64)   {}

func TestShuffledTiesKeepInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.ErdosRenyiGNM(rng, 30, 120)
	ins := FromGraph(g)
	got := Shuffled(ins, rand.New(&cycleSource{vals: []int64{1 << 40}})).Updates()
	if i := firstDiff(got, ins.Updates()); i >= 0 {
		t.Fatalf("insert-only, every priority tied: update %d is %v, want input order's %v", i, got[i], ins.Updates()[i])
	}

	// Three priorities in turn: a stable sort by priority is the reference.
	vals := []int64{3 << 40, 1 << 40, 2 << 40}
	want := slices.Clone(ins.Updates())
	rank := make(map[Update]int64, len(want))
	for i, u := range want {
		rank[u] = vals[i%len(vals)]
	}
	slices.SortStableFunc(want, func(a, b Update) int { return cmp.Compare(rank[a], rank[b]) })
	got = Shuffled(ins, rand.New(&cycleSource{vals: vals})).Updates()
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("insert-only, tied groups: update %d is %v, want %v", i, got[i], want[i])
	}

	// Under ties a turnstile shuffle groups updates by edge in first-seen
	// order; each edge's own updates must keep their input order.
	ts := WithDeletions(g, 1.0, rng)
	byEdge := func(ups []Update) map[graph.Edge][]Update {
		m := make(map[graph.Edge][]Update)
		for _, u := range ups {
			m[u.Edge.Canon()] = append(m[u.Edge.Canon()], u)
		}
		return m
	}
	perEdge := byEdge(ts.Updates())
	sh := Shuffled(ts, rand.New(&cycleSource{vals: []int64{1 << 40}})).Updates()
	for e, seq := range byEdge(sh) {
		if !slices.Equal(seq, perEdge[e]) {
			t.Fatalf("turnstile: edge %v updates %v, want %v", e, seq, perEdge[e])
		}
	}
	if len(sh) != len(ts.Updates()) {
		t.Fatalf("turnstile: %d updates, want %d", len(sh), len(ts.Updates()))
	}
}

// firstDiff returns the first index where two equal-length update
// sequences differ, or -1.
func firstDiff(a, b []Update) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// updatesHash is an FNV-1a hash of an update sequence.
func updatesHash(ups []Update) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, u := range ups {
		binary.LittleEndian.PutUint64(b[0:], uint64(u.Edge.U))
		binary.LittleEndian.PutUint64(b[8:], uint64(u.Edge.V))
		b[16] = byte(u.Op)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestShuffledOrderPinned pins the exact permutations Shuffled and
// WithDeletions produce at a fixed seed: every stream the benchmark and the
// experiments build from a graph depends on them, so any change to the
// draws or the tie-break moves these hashes.
func TestShuffledOrderPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 2000, 100000)
	if got, want := updatesHash(Shuffled(FromGraph(g), rng).Updates()), uint64(0x9e298dbd73dc6119); got != want {
		t.Errorf("insert-only shuffle of ER(2000, 100000) at seed 1: hash %#x, want %#x", got, want)
	}
	rng = rand.New(rand.NewSource(1))
	g = gen.ErdosRenyiGNM(rng, 200, 2000)
	ts := WithDeletions(g, 1.0, rng)
	if got, want := updatesHash(ts.Updates()), uint64(0x42f512dcad9559c2); got != want {
		t.Errorf("WithDeletions of ER(200, 2000) at seed 1: hash %#x, want %#x", got, want)
	}
	if got, want := updatesHash(Shuffled(ts, rng).Updates()), uint64(0xd5a66249c74b90b8); got != want {
		t.Errorf("turnstile shuffle of ER(200, 2000) at seed 1: hash %#x, want %#x", got, want)
	}
}

func BenchmarkShuffled(b *testing.B) {
	s := FromGraph(gen.ErdosRenyiGNM(rand.New(rand.NewSource(1)), 2000, 100000))
	rng := rand.New(rand.NewSource(2))
	for b.Loop() {
		Shuffled(s, rng)
	}
}
