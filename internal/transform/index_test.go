package transform

import (
	"fmt"
	"math/rand"
	"testing"

	"streamcount/internal/fgp"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// checkpointWorkload builds an insertion-only update sequence including
// duplicate edges (self-loops are rejected at the stream layer, so they
// never reach a runner).
func checkpointWorkload(t *testing.T, n, m int64) []stream.Update {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	g := gen.ErdosRenyiGNM(rng, n, m)
	ups := stream.FromGraph(g).Updates()
	ups = append(ups, ups[0], ups[len(ups)/2]) // duplicates
	return ups
}

func insQueries() []oracle.Query {
	return []oracle.Query{
		q(oracle.CountEdges),
		q(oracle.RandomEdge),
		q(oracle.Degree, 3),
		q(oracle.RandomEdge),
		q(oracle.Neighbor, 3, 0, 1),
		q(oracle.Adjacent, 3, 3),
		q(oracle.Neighbor, 0, 0, 2),
		q(oracle.RandomEdge),
		q(oracle.Adjacent, 0, 1),
		q(oracle.Degree, 0),
	}
}

func sameAnswers(t *testing.T, label string, want, got []oracle.Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: answer %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

type passCounters struct {
	rounds, queries, space int64
}

func countersOf(r oracle.Runner) passCounters {
	return passCounters{rounds: r.Rounds(), queries: r.Queries(), space: r.SpaceWords()}
}

// prefixQueries asks Degree, Neighbor and Adjacent about every edge of
// ups — both endpoints, both orientations, the first few neighbor ranks —
// behind the fixed mix of insQueries.
func prefixQueries(ups []stream.Update) []oracle.Query {
	qs := insQueries()
	for k, u := range ups {
		e := u.Edge
		qs = append(qs,
			q(oracle.Degree, e.U), q(oracle.Degree, e.V),
			q(oracle.Neighbor, e.U, 0, int64(k%3+1)), q(oracle.Neighbor, e.V, 0, 1),
			q(oracle.Adjacent, e.U, e.V), q(oracle.Adjacent, e.V, e.U))
	}
	return qs
}

// TestIndexedRunnerMatchesInsertionRunner pins the fast path's core claim:
// at EVERY version v, an IndexedRunner over the shared prefix index answers
// bit-identically — answers, budgets, RNG consumption — to a standalone
// InsertionRunner replaying the v-prefix with the same seed. It does so
// both over an index grown to exactly v, and pinned at v over one index
// already extended past it: an index at extent E answers every v ≤ E. Three
// back-to-back rounds per version mirror the FGP schedule and prove the
// runners stay in seed lockstep. The second workload repeats an edge right
// after its first insertion, so an index that remembered a repeat's
// position as the edge's first would answer Adjacent wrongly in between.
func TestIndexedRunnerMatchesInsertionRunner(t *testing.T) {
	const n = 25
	base := checkpointWorkload(t, n, 50)
	repeats := append([]stream.Update{base[0], base[0], base[1]}, base[2:]...)
	repeats = append(repeats[:10], append([]stream.Update{repeats[9]}, repeats[10:]...)...)
	for name, ups := range map[string][]stream.Update{"duplicates": base, "repeat right after": repeats} {
		full, _ := NewPrefixIndex(n)
		if err := full.Extend(ups); err != nil {
			t.Fatal(err)
		}
		ix, _ := NewPrefixIndex(n)
		for v := 0; v <= len(ups); v++ {
			// Grow the index incrementally, as the watch scheduler would.
			if v > 0 {
				if err := ix.Extend(ups[v-1 : v]); err != nil {
					t.Fatal(err)
				}
			}
			if ix.Extent() != int64(v) {
				t.Fatalf("extent=%d, want %d", ix.Extent(), v)
			}
			prefix, err := stream.NewSlice(n, ups[:v])
			if err != nil {
				t.Fatal(err)
			}
			qs := prefixQueries(ups[:v])
			for _, seed := range []int64{1, 17} {
				for _, idx := range []*PrefixIndex{ix, full} {
					cold, err := NewInsertionRunner(prefix, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					fast, err := NewIndexedRunner(idx, int64(v), rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					if cold.Model() != fast.Model() {
						t.Fatalf("model mismatch")
					}
					label := fmt.Sprintf("%s v=%d seed=%d extent=%d", name, v, seed, idx.Extent())
					for round := 0; round < 3; round++ {
						want, err := cold.Round(qs)
						if err != nil {
							t.Fatal(err)
						}
						got, err := fast.Round(qs)
						if err != nil {
							t.Fatal(err)
						}
						sameAnswers(t, label, want, got)
					}
					if countersOf(cold) != countersOf(fast) {
						t.Errorf("%s: counters %+v vs %+v", label, countersOf(fast), countersOf(cold))
					}
				}
			}
		}
	}
}

func TestIndexedRunnerErrorPaths(t *testing.T) {
	ix, _ := NewPrefixIndex(10)
	if err := ix.Extend([]stream.Update{{Edge: graph.Edge{U: 1, V: 2}, Op: stream.Delete}}); err == nil {
		t.Error("deletion accepted by insertion-only index")
	}
	if err := ix.Extend([]stream.Update{{Edge: graph.Edge{U: 1, V: 2}, Op: stream.Insert}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndexedRunner(ix, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Error("version past extent accepted")
	}
	if _, err := NewIndexedRunner(ix, -1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative version accepted")
	}
	r, err := NewIndexedRunner(ix, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Round([]oracle.Query{q(oracle.Neighbor, 1, 0, 0)}); err == nil {
		t.Error("Neighbor index 0 accepted")
	}
	if _, err := r.Round([]oracle.Query{q(oracle.RandomNeighbor, 1)}); err == nil {
		t.Error("RandomNeighbor accepted by augmented-model runner")
	}

	// A refused query after an accepted one is charged alike: the round
	// and both queries count, the accepted query's words do, the refused
	// one's do not.
	st, err := stream.NewSlice(10, []stream.Update{{Edge: graph.Edge{U: 1, V: 2}, Op: stream.Insert}})
	if err != nil {
		t.Fatal(err)
	}
	for _, refused := range []oracle.Query{q(oracle.Neighbor, 1, 0, 0), q(oracle.RandomNeighbor, 1), {Type: 99}} {
		ins, err := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		ind, err := NewIndexedRunner(ix, 1, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []oracle.Runner{ins, ind} {
			if _, err := r.Round([]oracle.Query{q(oracle.RandomEdge), refused}); err == nil {
				t.Errorf("%T: %+v accepted", r, refused)
			}
		}
		if countersOf(ins) != countersOf(ind) {
			t.Errorf("after refusing %+v: indexed counters %+v, insertion %+v", refused, countersOf(ind), countersOf(ins))
		}
	}
	tr := NewTurnstileRunner(st, rand.New(rand.NewSource(1)))
	for _, refused := range []oracle.Query{q(oracle.Neighbor, 1, 0, 1), {Type: 99}} {
		if _, err := tr.Round([]oracle.Query{q(oracle.Degree, 1), refused}); err == nil {
			t.Errorf("turnstile runner accepted %+v", refused)
		}
	}
}

// TestFGPEstimateIndexedVsStreaming runs the whole 3-round FGP counting
// pipeline over both runner implementations with identical seeds: the
// estimates (and every budget counter FGP reads) must match bit for bit,
// which is exactly what makes the watch fast path invisible in the
// determinism contract.
func TestFGPEstimateIndexedVsStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.ErdosRenyiGNM(rng, 80, 400)
	ups := stream.FromGraph(g).Updates()
	st, err := stream.NewSlice(80, ups)
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := NewPrefixIndex(80)
	if err := ix.Extend(ups); err != nil {
		t.Fatal(err)
	}
	pl, err := fgp.NewPlan(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 300
	for _, seed := range []int64{1, 2, 3} {
		cold, err := NewInsertionRunner(st, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fgp.CountParallel(cold, pl, trials, rand.New(rand.NewSource(seed)), 1)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewIndexedRunner(ix, int64(len(ups)), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fgp.CountParallel(fast, pl, trials, rand.New(rand.NewSource(seed)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if want.Estimate != got.Estimate || want.M != got.M {
			t.Errorf("seed %d: indexed estimate %v (m=%d), streaming %v (m=%d)",
				seed, got.Estimate, got.M, want.Estimate, want.M)
		}
		if cold.Queries() != fast.Queries() || cold.SpaceWords() != fast.SpaceWords() || cold.Rounds() != fast.Rounds() {
			t.Errorf("seed %d: budget drift (q %d/%d, s %d/%d, r %d/%d)", seed,
				fast.Queries(), cold.Queries(), fast.SpaceWords(), cold.SpaceWords(), fast.Rounds(), cold.Rounds())
		}
	}
}
