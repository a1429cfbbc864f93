package transform

import (
	"math/rand"
	"slices"
	"strings"
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

// feedAll drives one full manual round over ups in uneven chunks.
func feedAll(t *testing.T, r oracle.PassRunner, qs []oracle.Query, ups []stream.Update) []oracle.Answer {
	t.Helper()
	if err := r.BeginRound(qs); err != nil {
		t.Fatal(err)
	}
	return feedSuffix(t, r, ups)
}

// feedSuffix feeds ups into an already-begun round and ends it. It returns a
// copy of the answers, which the tests compare across the runner's rounds.
func feedSuffix(t *testing.T, r oracle.PassRunner, ups []stream.Update) []oracle.Answer {
	t.Helper()
	for len(ups) > 0 {
		k := 7
		if k > len(ups) {
			k = len(ups)
		}
		if err := r.ConsumeBatch(ups[:k]); err != nil {
			t.Fatal(err)
		}
		ups = ups[k:]
	}
	ans, err := r.EndRound()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(ans)
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

// testSnapshotResumeLinearity checks the checkpoint contract on any
// PassRunner factory: snapshot at position v, resume on a fresh runner, feed
// only the suffix — answers and budget counters must be bit-identical to a
// cold full-replay round, and a SECOND full round on both runners must also
// agree (seed lockstep: ResumeRound discards exactly the RNG draws
// BeginRound would have made).
func testSnapshotResumeLinearity(t *testing.T, ups []stream.Update, qs []oracle.Query, mk func(seed int64) oracle.PassRunner) {
	t.Helper()
	for _, v := range []int{0, 1, 7, len(ups) / 2, len(ups) - 1, len(ups)} {
		cold := mk(42)
		wantAns := feedAll(t, cold, qs, ups)
		wantRound2 := feedAll(t, cold, qs, ups)
		want := countersOf(cold)

		snap := mk(42)
		if err := snap.BeginRound(qs); err != nil {
			t.Fatal(err)
		}
		if err := snap.ConsumeBatch(ups[:v]); err != nil {
			t.Fatal(err)
		}
		cp, err := snap.SnapshotRound()
		if err != nil {
			t.Fatal(err)
		}
		if cp.CheckpointVersion() != int64(v) {
			t.Fatalf("v=%d: CheckpointVersion=%d", v, cp.CheckpointVersion())
		}
		if v > 0 && cp.CheckpointBytes() <= 0 {
			t.Fatalf("v=%d: CheckpointBytes=%d", v, cp.CheckpointBytes())
		}

		// The snapshotted runner finishes its own round first: taking the
		// snapshot must not have changed its answers, and its progress must
		// not reach the snapshot.
		sameAnswers(t, "snapshotted runner finishes", wantAns, feedSuffix(t, snap, ups[v:]))

		resumed := mk(42)
		if err := resumed.ResumeRound(cp, int64(v)); err != nil {
			t.Fatal(err)
		}
		gotAns := feedSuffix(t, resumed, ups[v:])
		sameAnswers(t, "resumed round", wantAns, gotAns)
		gotRound2 := feedAll(t, resumed, qs, ups)
		sameAnswers(t, "post-resume round 2 (seed lockstep)", wantRound2, gotRound2)
		if got := countersOf(resumed); got != want {
			t.Errorf("v=%d: counters %+v, want %+v", v, got, want)
		}
	}
}

func TestSnapshotResumeLinearityInsertion(t *testing.T) {
	ups := checkpointWorkload(t, 60, 150)
	st, err := stream.NewSlice(60, ups)
	if err != nil {
		t.Fatal(err)
	}
	testSnapshotResumeLinearity(t, ups, insQueries(), func(seed int64) oracle.PassRunner {
		r, err := NewInsertionRunner(st, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		r.SetParallelism(2)
		return r
	})
}

func TestSnapshotResumeLinearityTurnstile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := stream.WithDeletions(gen.ErdosRenyiGNM(rng, 40, 120), 0.3, rng)
	ups := ts.Updates()
	qs := []oracle.Query{
		q(oracle.CountEdges),
		q(oracle.RandomEdge),
		q(oracle.RandomNeighbor, 2),
		q(oracle.Degree, 2),
		q(oracle.RandomEdge),
		q(oracle.Adjacent, 0, 1),
		q(oracle.RandomNeighbor, 7),
	}
	testSnapshotResumeLinearity(t, ups, qs, func(seed int64) oracle.PassRunner {
		r := NewTurnstileRunner(ts, rand.New(rand.NewSource(seed)))
		r.SetParallelism(2)
		return r
	})
}

// TestSnapshotImmutable: a snapshot outlives its runner's round — feeding
// the snapshotted runner onward (and ending its round) must not leak into
// the checkpoint, and one snapshot must seed many identical resumptions.
func TestSnapshotImmutable(t *testing.T) {
	ups := checkpointWorkload(t, 30, 60)
	st, err := stream.NewSlice(30, ups)
	if err != nil {
		t.Fatal(err)
	}
	qs := insQueries()
	v := len(ups) / 3

	cold, _ := NewInsertionRunner(st, rand.New(rand.NewSource(7)))
	wantAns := feedAll(t, cold, qs, ups)

	snap, _ := NewInsertionRunner(st, rand.New(rand.NewSource(7)))
	if err := snap.BeginRound(qs); err != nil {
		t.Fatal(err)
	}
	if err := snap.ConsumeBatch(ups[:v]); err != nil {
		t.Fatal(err)
	}
	cp, err := snap.SnapshotRound()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshotted runner keeps going to completion; the snapshot must
	// not notice.
	sameAnswers(t, "snapshotted runner finishes", wantAns, feedSuffix(t, snap, ups[v:]))

	for i := 0; i < 2; i++ {
		resumed, _ := NewInsertionRunner(st, rand.New(rand.NewSource(7)))
		if err := resumed.ResumeRound(cp, int64(v)); err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, "repeat resumption", wantAns, feedSuffix(t, resumed, ups[v:]))
	}
}

func TestSnapshotRoundErrors(t *testing.T) {
	ups := checkpointWorkload(t, 20, 30)
	st, err := stream.NewSlice(20, ups)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
	if _, err := r.SnapshotRound(); err == nil || !strings.Contains(err.Error(), "outside a round") {
		t.Errorf("SnapshotRound outside a round: err=%v", err)
	}
	if err := r.BeginRound(insQueries()); err != nil {
		t.Fatal(err)
	}
	cp, err := r.SnapshotRound()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
	if err := r2.ResumeRound(cp, 5); err == nil || !strings.Contains(err.Error(), "checkpoint position") {
		t.Errorf("fromVersion mismatch: err=%v", err)
	}
	tr := NewTurnstileRunner(st, rand.New(rand.NewSource(1)))
	if err := tr.ResumeRound(cp, 0); err == nil || !strings.Contains(err.Error(), "not a turnstile-round checkpoint") {
		t.Errorf("cross-runner checkpoint: err=%v", err)
	}
}

// TestIndexedRunnerMatchesInsertionRunner pins the fast path's core claim:
// at EVERY version v, an IndexedRunner over the shared prefix index answers
// bit-identically — answers, budgets, RNG consumption — to a standalone
// InsertionRunner replaying the v-prefix with the same seed. Three
// back-to-back rounds per version mirror the FGP schedule and prove the
// runners stay in seed lockstep.
func TestIndexedRunnerMatchesInsertionRunner(t *testing.T) {
	ups := checkpointWorkload(t, 25, 50)
	const n = 25
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
		for _, seed := range []int64{1, 17} {
			prefix, err := stream.NewSlice(n, ups[:v])
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewInsertionRunner(prefix, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			fast, err := NewIndexedRunner(ix, int64(v), rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if cold.Model() != fast.Model() || cold.NumVertices() != fast.NumVertices() {
				t.Fatalf("model/n mismatch")
			}
			for round := 0; round < 3; round++ {
				want, err := cold.Round(insQueries())
				if err != nil {
					t.Fatal(err)
				}
				got, err := fast.Round(insQueries())
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, "indexed round", want, got)
			}
			if countersOf(cold) != countersOf(fast) {
				t.Errorf("v=%d seed=%d: counters %+v vs %+v", v, seed, countersOf(fast), countersOf(cold))
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
