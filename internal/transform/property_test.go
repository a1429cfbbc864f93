package transform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/stream"
)

func TestPropertyEdgeKeyRoundTrip(t *testing.T) {
	f := func(u32, v32 uint16, nPlus uint16) bool {
		n := int64(nPlus)%1000 + 2
		u := int64(u32) % n
		v := int64(v32) % n
		if u == v {
			return true // loops are not encoded
		}
		e := graph.Edge{U: u, V: v}
		key := edgeKey(e, n)
		got := keyEdge(key, n)
		return got == e.Canon()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDegreesMatchGraph(t *testing.T) {
	// Whatever the stream order, degree answers equal the final graph's
	// degrees in both runners.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyiGNM(rng, 20, 50)
		queries := make([]oracle.Query, g.N())
		for v := int64(0); v < g.N(); v++ {
			queries[v] = oracle.Query{Type: oracle.Degree, U: v}
		}
		ir, err := NewInsertionRunner(stream.Shuffled(stream.FromGraph(g), rng), rng)
		if err != nil {
			return false
		}
		ia, err := ir.Round(queries)
		if err != nil {
			return false
		}
		tr := NewTurnstileRunner(stream.Shuffled(stream.WithDeletions(g, 0.5, rng), rng), rng)
		ta, err := tr.Round(queries)
		if err != nil {
			return false
		}
		for v := int64(0); v < g.N(); v++ {
			if ia[v].Count != g.Degree(v) || ta[v].Count != g.Degree(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdjacencyMatchesGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyiGNM(rng, 12, 30)
		var queries []oracle.Query
		for u := int64(0); u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				queries = append(queries, oracle.Query{Type: oracle.Adjacent, U: u, V: v})
			}
		}
		tr := NewTurnstileRunner(stream.Shuffled(stream.WithDeletions(g, 1.0, rng), rng), rng)
		ans, err := tr.Round(queries)
		if err != nil {
			return false
		}
		i := 0
		for u := int64(0); u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if ans[i].Yes != g.HasEdge(u, v) {
					return false
				}
				i++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// rawStream replays its updates as given: unlike the stream constructors it
// lets self-loops through, so a runner's handling of them is exercised.
type rawStream struct {
	n   int64
	ups []stream.Update
}

func (s rawStream) N() int64         { return s.n }
func (s rawStream) Len() int64       { return int64(len(s.ups)) }
func (s rawStream) InsertOnly() bool { return true }

func (s rawStream) ForEachBatch(fn func([]stream.Update) error) error {
	for lo := 0; lo < len(s.ups); lo += stream.DefaultBatchSize {
		if err := fn(s.ups[lo:min(lo+stream.DefaultBatchSize, len(s.ups))]); err != nil {
			return err
		}
	}
	return nil
}

// TestNeighborAnswerIsAdjacent is the invariant the ERS level chain leans on
// when it skips Adjacent(w, u_min): every vertex w that Neighbor(u, i)
// answers is adjacent to u on the runner that answered it. The streaming
// runners read streams with duplicate edges and self-loops; the direct
// oracle reads the simple graph underneath. A self-loop answers Neighbor(u, i) with u
// itself; the chain never checks that answer, because checkQueries drops
// every w already in its tuple (slices.Contains(tu, w)), and u_min is.
func TestNeighborAnswerIsAdjacent(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := int64(12)
		g := gen.ErdosRenyiGNM(rng, n, 30)
		ups := stream.Shuffled(stream.FromGraph(g), rng).Updates()
		for k := 0; k < 10; k++ {
			ups = append(ups, ups[rng.Intn(len(ups))]) // duplicates
			v := rng.Int63n(n)
			ups = append(ups, stream.Update{Edge: graph.Edge{U: v, V: v}, Op: stream.Insert})
		}
		rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
		st := rawStream{n: n, ups: ups}

		ins, err := NewInsertionRunner(st, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewPrefixIndex(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ForEachBatch(ix.Extend); err != nil {
			t.Fatal(err)
		}
		indexed, err := NewIndexedRunner(ix, ix.Extent(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var loopAnswers int
		for name, r := range map[string]oracle.Runner{
			"direct":    oracle.NewDirect(g, oracle.Augmented, rand.New(rand.NewSource(seed))),
			"insertion": ins,
			"indexed":   indexed,
		} {
			// Ask past every vertex's degree — a self-loop counts twice
			// towards it — so failed draws are among the answers too.
			var nbrs []oracle.Query
			for u := int64(0); u < n; u++ {
				for i := int64(1); i <= 2*int64(len(ups))+1; i++ {
					nbrs = append(nbrs, oracle.Query{Type: oracle.Neighbor, U: u, I: i})
				}
			}
			ans, err := r.Round(nbrs)
			if err != nil {
				t.Fatal(err)
			}
			var adj []oracle.Query
			for k, a := range ans {
				if a.OK {
					adj = append(adj, oracle.Query{Type: oracle.Adjacent, U: nbrs[k].U, V: a.Count})
					if a.Count == nbrs[k].U {
						loopAnswers++
					}
				}
			}
			yes, err := r.Round(adj)
			if err != nil {
				t.Fatal(err)
			}
			for k, a := range yes {
				if !a.OK || !a.Yes {
					t.Errorf("seed %d, %s: Neighbor answered %d for vertex %d, but Adjacent says %+v",
						seed, name, adj[k].V, adj[k].U, a)
				}
			}
		}
		if loopAnswers == 0 {
			t.Errorf("seed %d: no Neighbor answer came from a self-loop", seed)
		}
	}
}
