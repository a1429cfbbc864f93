package streamcount_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streamcount"
	"streamcount/internal/core"
	"streamcount/internal/ers"
	"streamcount/internal/gen"
	"streamcount/internal/stream"
)

// estimateAt runs a CountQuery on st with the given trial budget and
// parallelism at a fixed seed. (Turnstile runs use a smaller budget: each
// RandomEdge query materializes an ℓ0-sampler, so trials dominate memory
// and time there.)
func estimateAt(t *testing.T, st streamcount.Stream, p *streamcount.Pattern, trials, parallelism int) *streamcount.CountResult {
	t.Helper()
	est, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
		streamcount.WithTrials(trials),
		streamcount.WithSeed(42),
		streamcount.WithParallelism(parallelism),
	))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestEstimateDeterministicAcrossParallelism is the pass engine's
// determinism contract (DESIGN.md §2): a fixed seed yields bit-identical
// estimates no matter how many workers serve the passes, on both stream
// models.
func TestEstimateDeterministicAcrossParallelism(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	g := streamcount.ErdosRenyi(rng, 150, 1200)
	ts := streamcount.TurnstileFromGraph(g, 0.5, rng)

	streams := map[string]struct {
		st     streamcount.Stream
		trials int
	}{
		"insertion": {streamcount.StreamFromGraph(g), 20000},
		"turnstile": {ts, 2000},
	}
	for name, c := range streams {
		st := c.st
		base := estimateAt(t, st, p, c.trials, 1)
		if base.Value <= 0 {
			t.Fatalf("%s: degenerate baseline estimate %v", name, base.Value)
		}
		for _, par := range []int{2, 3, 8, 0} {
			got := estimateAt(t, st, p, c.trials, par)
			if got.Value != base.Value {
				t.Errorf("%s: estimate at parallelism %d = %v, want %v (parallelism 1)",
					name, par, got.Value, base.Value)
			}
			if got.M != base.M || got.Queries != base.Queries || got.SpaceWords != base.SpaceWords {
				t.Errorf("%s: accounting at parallelism %d = (m=%d q=%d w=%d), want (m=%d q=%d w=%d)",
					name, par, got.M, got.Queries, got.SpaceWords, base.M, base.Queries, base.SpaceWords)
			}
		}
	}
}

// TestTurnstileEstimateGolden pins the turnstile path's draws to the values
// it produced before the ℓ0-samplers took their feed in batches (ISSUE 16):
// hash derivation, cell contents and sample choice are part of the result
// fingerprint's epoch, so a change that moves any of these numbers is a
// format change, not an optimisation.
func TestTurnstileEstimateGolden(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g := streamcount.ErdosRenyi(rng, 64, 1300)
	st := streamcount.TurnstileFromGraph(g, 0.3, rng)
	want := []float64{12375.999999999998, 10607.999999999998, 7955.999999999999, 11491.999999999998, 18564, 9724}
	for seed, w := range want {
		for _, par := range []int{1, 2, 3} {
			got, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
				streamcount.WithTrials(150), streamcount.WithSeed(int64(seed)), streamcount.WithParallelism(par)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != w {
				t.Errorf("seed %d parallelism %d: estimate %v, want %v", seed, par, got.Value, w)
			}
		}
	}

	// One row across feed blocks, recorded on the commit before a block was
	// netted by key (ISSUE 24): 33 600 updates are more than two blocks of
	// 16 384, so decoy pairs fall inside one block (netted away) and across a
	// flush boundary (not), at every worker split of the sampler stages.
	g = streamcount.ErdosRenyi(rng, 300, 21000)
	st = streamcount.TurnstileFromGraph(g, 0.3, rng)
	if st.Len() != 33600 {
		t.Fatalf("cross-block stream has %d updates, want 33600", st.Len())
	}
	const wantValue, wantQueries, wantSpace = 430499.99999999994, 535, 226435
	for _, par := range []int{1, 2, 3} {
		got, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
			streamcount.WithTrials(60), streamcount.WithSeed(24), streamcount.WithParallelism(par)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != wantValue || got.Queries != wantQueries || got.SpaceWords != wantSpace || got.Passes != 3 {
			t.Errorf("cross-block parallelism %d: (value %v, queries %d, space %d, passes %d), want (%v, %d, %d, 3)",
				par, got.Value, got.Queries, got.SpaceWords, got.Passes, wantValue, wantQueries, wantSpace)
		}
	}
}

// TestInsertionEstimateGolden is the insertion-only counterpart: the values
// were produced by the map-and-countdown round that preceded the flat query
// tables (ISSUE 17), so reservoir draws, the i-th neighbour an f3 watch
// reports and the per-query space charge are pinned end to end, for the FGP
// triangle count and for one ERS clique chain. The FGP rows' wantQueries (and
// with them space = queries + 6000) were re-pinned by ISSUE 22, from 29602 /
// 29555 / 29544 / 29522 / 29549 / 29631: round 2 now asks deg(u₁) next to the
// neighbour draw, a trial whose draw fails asks nothing in round 3, and a
// surviving one asks only about the vertices its degree branch reads. The
// values did not move because no trial's coins did — the trials ended early
// are the ones postprocessing discarded on its first line. The ERS rows'
// queries and space were re-pinned when the level chains stopped asking what
// they already knew, from (403744, 556398) for K3, (2779991, 4224168) for K4,
// (1181798, 1704003) for K5 and (234890, 321818) for the aborting K4: a level
// chain no longer asks Adjacent(w, u_min), which the neighbour draw of w from
// u_min answered, nor an activeness chain's last Degree(w), which its vote
// never reads. Each skipped query was one word of space; the values did not
// move.
func TestInsertionEstimateGolden(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	g := streamcount.ErdosRenyi(rand.New(rand.NewSource(1)), 300, 6000)
	st := streamcount.StreamFromGraph(g)
	wantValue := []float64{7920.000000000001, 15840.000000000002, 5940.000000000001, 15180.000000000002, 11220.000000000002, 10560.000000000002}
	wantQueries := []int64{11772, 11698, 11690, 11730, 11707, 11875}
	for seed, w := range wantValue {
		for _, par := range []int{1, 2, 3} {
			got, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
				streamcount.WithTrials(2000), streamcount.WithSeed(int64(seed)), streamcount.WithParallelism(par)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != w || got.Queries != wantQueries[seed] || got.SpaceWords != wantQueries[seed]+6000 || got.Passes != 3 {
				t.Errorf("seed %d parallelism %d: (value %v, queries %d, space %d, passes %d), want (%v, %d, %d, 3)",
					seed, par, got.Value, got.Queries, got.SpaceWords, got.Passes, w, wantQueries[seed], wantQueries[seed]+6000)
			}
		}
	}

	bg := streamcount.BarabasiAlbert(rand.New(rand.NewSource(5)), 200, 3)
	lambda, _ := streamcount.Degeneracy(bg)
	for _, par := range []int{1, 2, 3} {
		got, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(bg), streamcount.CliqueQuery(3,
			streamcount.WithLambda(lambda), streamcount.WithEpsilon(0.4), streamcount.WithLowerBound(40),
			streamcount.WithSeed(6), streamcount.WithParallelism(par)))
		if err != nil {
			t.Fatal(err)
		}
		const wantValue, wantPasses, wantQueries, wantSpace = 155.25414744917524, 7, 248062, 400716
		if got.Value != wantValue || got.Passes != wantPasses || got.Queries != wantQueries || got.SpaceWords != wantSpace {
			t.Errorf("K3 parallelism %d: (value %v, passes %d, queries %d, space %d), want (%v, %d, %d, %d)",
				par, got.Value, got.Passes, got.Queries, got.SpaceWords, wantValue, wantPasses, wantQueries, wantSpace)
		}
	}

	// One K4 chain, recorded on the commit before the ERS chains moved to
	// flat level arrays (ISSUE 18): it has the levels a triangle count lacks —
	// activeness chains that start at length-2 and length-3 prefixes and
	// extend more than once.
	krng := rand.New(rand.NewSource(7))
	kg := gen.PlantCliques(krng, gen.BarabasiAlbert(krng, 80, 2), 4, 6)
	lambda, _ = streamcount.Degeneracy(kg)
	for _, par := range []int{1, 2, 3} {
		got, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(kg), streamcount.CliqueQuery(4,
			streamcount.WithLambda(lambda), streamcount.WithEpsilon(0.5), streamcount.WithLowerBound(6),
			streamcount.WithSeed(6), streamcount.WithParallelism(par)))
		if err != nil {
			t.Fatal(err)
		}
		const wantValue, wantPasses, wantQueries, wantSpace = 5.437329317899849, 11, 2333567, 3777744
		if got.Value != wantValue || got.Passes != wantPasses || got.Queries != wantQueries || got.SpaceWords != wantSpace {
			t.Errorf("K4 parallelism %d: (value %v, passes %d, queries %d, space %d), want (%v, %d, %d, %d)",
				par, got.Value, got.Passes, got.Queries, got.SpaceWords, wantValue, wantPasses, wantQueries, wantSpace)
		}
	}

	// One K5 chain, recorded on the commit before a level chain stopped
	// asking Adjacent(w, u_min) and an activeness chain's last Degree(w): it
	// has activeness prefixes of length 2, 3 and 4, and chains that extend
	// up to three times.
	krng = rand.New(rand.NewSource(7))
	k5 := gen.PlantCliques(krng, gen.BarabasiAlbert(krng, 60, 2), 5, 4)
	lambda, _ = streamcount.Degeneracy(k5)
	for _, par := range []int{1, 2, 3} {
		got, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(k5), streamcount.CliqueQuery(5,
			streamcount.WithLambda(lambda), streamcount.WithEpsilon(0.5), streamcount.WithLowerBound(200),
			streamcount.WithSeed(6), streamcount.WithParallelism(par)))
		if err != nil {
			t.Fatal(err)
		}
		const wantValue, wantPasses, wantQueries, wantSpace = 15.993523098707248, 15, 976899, 1499104
		if got.Value != wantValue || got.Passes != wantPasses || got.Queries != wantQueries || got.SpaceWords != wantSpace {
			t.Errorf("K5 parallelism %d: (value %v, passes %d, queries %d, space %d), want (%v, %d, %d, %d)",
				par, got.Value, got.Passes, got.Queries, got.SpaceWords, wantValue, wantPasses, wantQueries, wantSpace)
		}
	}

	// The K4 graph under an understated λ, recorded on the same commit: the
	// sample cap sits inside the spread of s_3, so two of the five
	// invocations abort on their chain's first step (the abort the flat
	// chain once lost) while three reach R_4 and run their activeness checks.
	{
		h, err := core.RunJob(context.Background(), stream.FromGraph(kg), core.Job{Kind: core.JobCliques, Clique: core.CliqueConfig{
			R: 4, Lambda: 2, Epsilon: 0.4, LowerBound: 6, Seed: 2,
			Params: ers.Params{TauC: 2, SampleC: 4, MaxLevelSamples: 6075}}})
		if err != nil {
			t.Fatal(err)
		}
		got := h.Result().Est
		const wantValue, wantPasses, wantQueries, wantSpace = 5.411761413853101, 11, 175544, 262472
		if got.Value != wantValue || got.Passes != wantPasses || got.Queries != wantQueries || got.SpaceWords != wantSpace {
			t.Errorf("K4 abort: (value %v, passes %d, queries %d, space %d), want (%v, %d, %d, %d)",
				got.Value, got.Passes, got.Queries, got.SpaceWords, wantValue, wantPasses, wantQueries, wantSpace)
		}
	}
}

// TestEstimateDeterministicAcrossGOMAXPROCS pins the same contract against
// the runtime knob: Parallelism 0 resolves to GOMAXPROCS, so the estimate
// at GOMAXPROCS=1 must equal the estimate at GOMAXPROCS=N.
func TestEstimateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	g := streamcount.ErdosRenyi(rng, 100, 800)
	st := streamcount.StreamFromGraph(g)

	old := runtime.GOMAXPROCS(1)
	seq := estimateAt(t, st, p, 10000, 0)
	runtime.GOMAXPROCS(4)
	par := estimateAt(t, st, p, 10000, 0)
	runtime.GOMAXPROCS(old)

	if seq.Value != par.Value {
		t.Errorf("estimate at GOMAXPROCS 1 = %v, at GOMAXPROCS 4 = %v", seq.Value, par.Value)
	}
}

// TestSampleDeterministicAcrossParallelism extends the contract to the
// uniform sampler: the returned copy is identical at any parallelism.
func TestSampleDeterministicAcrossParallelism(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	g := streamcount.ErdosRenyi(rng, 40, 250)
	if streamcount.ExactCount(g, p) == 0 {
		t.Skip("no triangles in workload")
	}
	st := streamcount.StreamFromGraph(g)
	run := func(parallelism int) (streamcount.SampledCopy, bool) {
		r, err := streamcount.Run(context.Background(), st, streamcount.SampleQuery(p,
			streamcount.WithTrials(2000), streamcount.WithSeed(9), streamcount.WithParallelism(parallelism)))
		if err != nil {
			t.Fatal(err)
		}
		return r.Copy, r.Found
	}
	base, okBase := run(1)
	for _, par := range []int{2, 8} {
		cp, ok := run(par)
		if ok != okBase {
			t.Fatalf("parallelism %d: ok=%v, want %v", par, ok, okBase)
		}
		if !ok {
			continue
		}
		if len(cp.Edges) != len(base.Edges) {
			t.Fatalf("parallelism %d: %d edges, want %d", par, len(cp.Edges), len(base.Edges))
		}
		for i := range cp.Edges {
			if cp.Edges[i] != base.Edges[i] {
				t.Errorf("parallelism %d: edge %d = %v, want %v", par, i, cp.Edges[i], base.Edges[i])
			}
		}
	}
}

// TestShuffledStreamFileBacked covers the former panic: shuffling a
// file-backed stream must materialize it rather than crash on the type
// assertion.
func TestShuffledStreamFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.txt")
	content := "4\n+ 0 1\n+ 1 2\n+ 2 3\n+ 0 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := streamcount.OpenStreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := streamcount.ShuffledStream(st, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Len() != 4 || sh.N() != 4 {
		t.Errorf("shuffled stream: len=%d n=%d, want 4, 4", sh.Len(), sh.N())
	}
	seen := 0
	if err := sh.ForEachBatch(func(b []streamcount.Update) error { seen += len(b); return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Errorf("replayed %d updates, want 4", seen)
	}
}
