package transform

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

// referenceInsertionRunner is the insertion round as it was before the flat
// query tables (ISSUE 17), kept as the equivalence reference: Go maps keyed
// by vertex and by packed edge key, one countdown per f3 watch decremented on
// every incident update, and one heap reservoir per f1 query. It is the
// sequential round — answers never depended on the worker count.
type referenceInsertionRunner struct {
	n                      int64
	rng                    *rand.Rand
	rounds, queries, space int64

	qs  []oracle.Query
	m   int64
	res []*sketch.Reservoir
	deg map[int64]int64
	nbr map[int64][]*referenceWatch
	adj map[uint64]bool
}

type referenceWatch struct {
	remaining, result int64
	found             bool
}

func (r *referenceInsertionRunner) begin(qs []oracle.Query) error {
	r.rounds++
	r.queries += int64(len(qs))
	r.qs, r.m, r.res = qs, 0, nil
	r.deg = map[int64]int64{}
	r.nbr = map[int64][]*referenceWatch{}
	r.adj = map[uint64]bool{}
	for _, q := range qs {
		switch q.Type {
		case oracle.CountEdges:
			r.space++
		case oracle.RandomEdge:
			r.res = append(r.res, sketch.NewReservoirSeeded(r.rng.Uint64()))
			r.space += 2
		case oracle.Degree:
			r.deg[q.U] += 0
			r.space++
		case oracle.Neighbor:
			if q.I < 1 {
				return fmt.Errorf("transform: Neighbor index %d < 1", q.I)
			}
			r.nbr[q.U] = append(r.nbr[q.U], &referenceWatch{remaining: q.I})
			r.space += 2
		case oracle.Adjacent:
			r.adj[edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), r.n)] = false
			r.space++
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	return nil
}

func (r *referenceInsertionRunner) consume(batch []stream.Update) {
	advance := func(ws []*referenceWatch, other int64) {
		for _, w := range ws {
			if !w.found {
				w.remaining--
				if w.remaining == 0 {
					w.result, w.found = other, true
				}
			}
		}
	}
	for _, u := range batch {
		e := u.Edge.Canon()
		key := edgeKey(e, r.n)
		r.m++
		for _, rs := range r.res {
			rs.Offer(key)
		}
		if _, ok := r.deg[e.U]; ok {
			r.deg[e.U]++
		}
		if _, ok := r.deg[e.V]; ok {
			r.deg[e.V]++
		}
		advance(r.nbr[e.U], e.V)
		advance(r.nbr[e.V], e.U)
		if _, ok := r.adj[key]; ok {
			r.adj[key] = true
		}
	}
}

func (r *referenceInsertionRunner) end() []oracle.Answer {
	answers := make([]oracle.Answer, len(r.qs))
	nextRes := 0
	nextWatch := map[int64]int{}
	for i, q := range r.qs {
		switch q.Type {
		case oracle.CountEdges:
			answers[i] = oracle.Answer{OK: true, Count: r.m}
		case oracle.RandomEdge:
			if key, ok := r.res[nextRes].Sample(); ok {
				answers[i] = oracle.Answer{OK: true, Edge: keyEdge(key, r.n)}
			}
			nextRes++
		case oracle.Degree:
			answers[i] = oracle.Answer{OK: true, Count: r.deg[q.U]}
		case oracle.Neighbor:
			w := r.nbr[q.U][nextWatch[q.U]]
			nextWatch[q.U]++
			answers[i] = oracle.Answer{OK: w.found, Count: w.result}
		case oracle.Adjacent:
			answers[i] = oracle.Answer{OK: true, Yes: r.adj[edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), r.n)]}
		}
	}
	return answers
}

// equivalenceStream is a multigraph stream over n vertices in which vertex 0
// is a hub (the ERS shape: one vertex carrying thousands of watches needs a
// long incidence list) and a few edges repeat.
func equivalenceStream(t *testing.T, rng *rand.Rand, n int64, m int) (*stream.Slice, []stream.Update) {
	t.Helper()
	ups := make([]stream.Update, 0, m)
	for len(ups) < m {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if rng.Intn(3) == 0 {
			u = 0
		}
		if u == v {
			continue
		}
		ups = append(ups, stream.Update{Edge: graph.Edge{U: u, V: v}, Op: stream.Insert})
		if rng.Intn(10) == 0 { // a multi-edge, in either orientation
			ups = append(ups, stream.Update{Edge: graph.Edge{U: v, V: u}, Op: stream.Insert})
		}
	}
	st, err := stream.NewSlice(n, ups)
	if err != nil {
		t.Fatal(err)
	}
	return st, ups
}

// equivalenceQueries draws a round that mixes every query type and every
// shape the flat layout has to get right: the same (U, I) watched several
// times, several watches of one vertex firing on one update, indices beyond
// the final degree, vertices both Degree- and Neighbor-queried, repeated
// Adjacent pairs in both orientations, and — when hub > 0 — that many
// unsorted watches on vertex 0. wide adds enough distinct vertices and pairs
// to take both key tables through several doublings.
func equivalenceQueries(rng *rand.Rand, n int64, hub int, wide bool) []oracle.Query {
	var qs []oracle.Query
	add := func(typ oracle.Type, u, v, i int64) { qs = append(qs, oracle.Query{Type: typ, U: u, V: v, I: i}) }
	count := 40 + rng.Intn(60)
	if wide {
		count = 4000
	}
	for k := 0; k < count; k++ {
		u, v := rng.Int63n(n), rng.Int63n(n)
		switch rng.Intn(7) {
		case 0:
			add(oracle.CountEdges, 0, 0, 0)
		case 1:
			add(oracle.RandomEdge, 0, 0, 0)
		case 2:
			add(oracle.Degree, u, 0, 0)
			add(oracle.Neighbor, u, 0, 1+rng.Int63n(4))
		case 3:
			i := 1 + rng.Int63n(6)
			for rep := rng.Intn(3); rep >= 0; rep-- {
				add(oracle.Neighbor, u, 0, i)
			}
		case 4:
			add(oracle.Neighbor, u, 0, 1+rng.Int63n(2000)) // mostly beyond the final degree
		case 5:
			add(oracle.Adjacent, u, v, 0)
			add(oracle.Adjacent, v, u, 0)
		case 6:
			add(oracle.Adjacent, u, v, 0)
		}
	}
	for k := 0; k < hub; k++ {
		add(oracle.Neighbor, 0, 0, 1+rng.Int63n(int64(hub)/4))
	}
	rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
	return qs
}

// feedCuts feeds ups to fn in batches cut at random positions.
func feedCuts(rng *rand.Rand, ups []stream.Update, fn func([]stream.Update)) {
	for len(ups) > 0 {
		k := 1 + rng.Intn(min(len(ups), 600))
		fn(ups[:k])
		ups = ups[k:]
	}
}

// TestInsertionRunnerMatchesReference property-tests the flat-table round
// against the map-and-countdown reference: three rounds per runner, fed in
// batches cut at random positions, answers and Rounds/Queries/SpaceWords
// bit-equal, on fresh runners and on a pooled runner recycled under
// pool.DebugDirty.
func TestInsertionRunnerMatchesReference(t *testing.T) {
	defer pool.SetDebug(pool.SetDebug(pool.DebugDirty))
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Int63n(300)
		hub, wide := 0, false
		switch seed % 4 {
		case 1:
			hub = 5000 + rng.Intn(2000)
		case 2:
			n, wide = 3000, true
		}
		st, ups := equivalenceStream(t, rng, n, 1500+rng.Intn(2000))
		rounds := [][]oracle.Query{
			equivalenceQueries(rng, n, hub, wide),
			equivalenceQueries(rng, n, 0, false), // a small round after a large one: stale scratch must not show
			equivalenceQueries(rng, n, hub/2, wide),
		}

		ref := &referenceInsertionRunner{n: n, rng: rand.New(rand.NewSource(seed))}
		var want [][]oracle.Answer
		for _, qs := range rounds {
			if err := ref.begin(qs); err != nil {
				t.Fatal(err)
			}
			ref.consume(ups)
			want = append(want, ref.end())
		}
		wantCounters := passCounters{ref.rounds, ref.queries, ref.space}

		for _, pooled := range []bool{false, true} {
			label := fmt.Sprintf("seed %d pooled=%v", seed, pooled)
			mk := NewInsertionRunner
			if pooled {
				mk = AcquireInsertionRunner
			}
			r, err := mk(st, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			cuts := rand.New(rand.NewSource(seed + 100))
			for k, qs := range rounds {
				if err := r.BeginRound(qs); err != nil {
					t.Fatal(err)
				}
				feedCuts(cuts, ups, func(b []stream.Update) {
					if err := r.ConsumeBatch(b); err != nil {
						t.Fatal(err)
					}
				})
				got, err := r.EndRound()
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, fmt.Sprintf("%s round %d", label, k), want[k], got)
			}
			if got := countersOf(r); got != wantCounters {
				t.Errorf("%s: counters %+v, want %+v", label, got, wantCounters)
			}
			if pooled {
				r.Release()
			}
		}
	}
}

// TestWatchRunPlacement holds placeRun to the comparison sort it replaces for
// long, narrow runs: on both sides of the length threshold and of the span
// bound, with all-equal and near-MaxInt64 indices; then end to end, a hub
// vertex's watches answered from the stream's order on a fresh runner and on
// pooled ones under pool.DebugDirty.
func TestWatchRunPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	byIThenQuery := func(a, b neighborWatch) int {
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.query, b.query))
	}
	for _, c := range []struct {
		name     string
		n        int
		lo, span int64 // i values are lo, lo+span-1 and draws between them
		counting bool
	}{
		{"len 31", 31, 1, 20, false},
		{"len 32", 32, 1, 20, true},
		{"len 33", 33, 1, 20, true},
		{"all equal", 500, 7, 1, true},
		{"span = len", 200, 3, 200, true},
		{"span = len + 1", 200, 3, 201, false},
		{"wide", 200, 1, 1 << 40, false},
		{"narrow near MaxInt64", 64, math.MaxInt64 - 39, 40, true},
		{"whole int64 range", 64, 1, math.MaxInt64, false},
	} {
		run := make([]neighborWatch, c.n)
		for k := range run {
			run[k] = neighborWatch{i: c.lo + rng.Int63n(c.span), query: int32(k)}
		}
		run[rng.Intn(c.n/2)].i = c.lo
		run[c.n/2+rng.Intn(c.n/2)].i = c.lo + c.span - 1
		want := slices.Clone(run)
		slices.SortFunc(want, byIThenQuery)

		var r InsertionRunner
		r.runCopy = []neighborWatch{{i: -1}} // a previous run's leftovers
		r.runPos = []int32{9, 9, 9}
		r.placeRun(run)
		if counted := len(r.runCopy) == c.n; counted != c.counting {
			t.Errorf("%s: placed by counting: %v, want %v", c.name, counted, c.counting)
		}
		if !slices.IsSortedFunc(run, func(a, b neighborWatch) int { return cmp.Compare(a.i, b.i) }) {
			t.Errorf("%s: run is not ascending in i", c.name)
		}
		slices.SortFunc(run, byIThenQuery)
		if !slices.Equal(run, want) {
			t.Errorf("%s: placement lost or changed a watch", c.name)
		}
	}

	defer pool.SetDebug(pool.SetDebug(pool.DebugDirty))
	st, ups := equivalenceStream(t, rng, 50, 3000)
	var hub []int64 // vertex 0's neighbors in stream order
	for _, u := range ups {
		if u.Edge.U == 0 {
			hub = append(hub, u.Edge.V)
		} else if u.Edge.V == 0 {
			hub = append(hub, u.Edge.U)
		}
	}
	var qs []oracle.Query
	var want []oracle.Answer
	for k := 0; k < 4000; k++ {
		i := 1 + rng.Int63n(int64(len(hub))+100)
		if k%5 == 0 { // a short run on another vertex, sorted by comparison
			qs = append(qs, oracle.Query{Type: oracle.Degree, U: 0})
			want = append(want, oracle.Answer{OK: true, Count: int64(len(hub))})
			continue
		}
		qs = append(qs, oracle.Query{Type: oracle.Neighbor, U: 0, I: i})
		if i <= int64(len(hub)) {
			want = append(want, oracle.Answer{OK: true, Count: hub[i-1]})
		} else {
			want = append(want, oracle.Answer{})
		}
	}
	for _, pooled := range []bool{false, true, true} {
		mk := NewInsertionRunner
		if pooled {
			mk = AcquireInsertionRunner
		}
		r, err := mk(st, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Round(qs)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("hub round pooled=%v", pooled), want, got)
		if pooled {
			r.Release()
		}
	}
}

// hugeUniverse is an empty stream over more vertices than a packed edge key
// can tell apart.
type hugeUniverse struct{ *stream.Slice }

func (hugeUniverse) N() int64 { return maxVertices + 1 }

func TestOversizedUniverseRejected(t *testing.T) {
	const want = "packed edge key"
	rng := rand.New(rand.NewSource(1))
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s over 2^32+1 vertices: err = %v, want one naming the %s limit", what, err, want)
		}
	}
	st, err := stream.NewSlice(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := hugeUniverse{st}
	_, err = NewInsertionRunner(big, rng)
	check("NewInsertionRunner", err)
	_, err = AcquireInsertionRunner(big, rng)
	check("AcquireInsertionRunner", err)
	_, err = NewPrefixIndex(big.N())
	check("NewPrefixIndex", err)
	_, err = NewTurnstileRunner(big, rng).Round([]oracle.Query{{Type: oracle.CountEdges}})
	check("NewTurnstileRunner's first round", err)
	tr := AcquireTurnstileRunner(big, rng)
	_, err = tr.Round([]oracle.Query{{Type: oracle.CountEdges}})
	check("AcquireTurnstileRunner's first round", err)
	tr.Release()

	// The limit itself is fine: keys up to (2^32-1)·2^32 + 2^32-1 fit.
	if _, err := NewPrefixIndex(maxVertices); err != nil {
		t.Errorf("NewPrefixIndex(2^32): %v", err)
	}
	e := graph.Edge{U: maxVertices - 2, V: maxVertices - 1}
	if got := keyEdge(edgeKey(e, maxVertices), maxVertices); got != e {
		t.Errorf("edge key round trip at n = 2^32: %v, want %v", got, e)
	}
}
