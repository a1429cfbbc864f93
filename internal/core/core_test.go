package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// runJob runs j standalone, as a single-job session, through RunJob.
func runJob(st stream.Stream, j Job) (JobResult, error) {
	h, err := RunJob(context.Background(), st, j)
	if err != nil {
		return JobResult{}, err
	}
	return h.Result(), nil
}

// runCount is runJob for the counting job kinds.
func runCount(st stream.Stream, j Job) (*CountResult, error) {
	r, err := runJob(st, j)
	return r.Est, err
}

func TestEstimateSubgraphsInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 40, 250)
	want := exact.Triangles(g)
	if want < 10 {
		t.Skipf("few triangles: %d", want)
	}
	est, err := runCount(stream.FromGraph(g), Job{Kind: JobEstimate, Config: Config{
		Pattern: pattern.Triangle(),
		Trials:  30000,
		Seed:    2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Passes != 3 {
		t.Errorf("passes=%d, want 3", est.Passes)
	}
	if est.M != g.M() {
		t.Errorf("m=%d, want %d", est.M, g.M())
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.25 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
	if est.Queries == 0 || est.SpaceWords == 0 {
		t.Errorf("accounting empty: queries=%d space=%d", est.Queries, est.SpaceWords)
	}
}

func TestEstimateSubgraphsTurnstileSelectsRelaxedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 30, 150)
	want := exact.Triangles(g)
	if want < 5 {
		t.Skipf("few triangles: %d", want)
	}
	ts := stream.WithDeletions(g, 0.5, rng)
	if ts.InsertOnly() {
		t.Fatal("precondition: turnstile stream")
	}
	est, err := runCount(ts, Job{Kind: JobEstimate, Config: Config{
		Pattern: pattern.Triangle(),
		Trials:  20000,
		Seed:    4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Passes != 3 {
		t.Errorf("passes=%d, want 3 (Theorem 1)", est.Passes)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.4 {
		t.Errorf("turnstile estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

func TestEstimateSubgraphsConfigValidation(t *testing.T) {
	st, _ := stream.NewSlice(3, nil)
	if _, err := runCount(st, Job{Kind: JobEstimate, Config: Config{}}); err == nil {
		t.Error("nil pattern should error")
	}
	if _, err := runCount(st, Job{Kind: JobEstimate, Config: Config{Pattern: pattern.Triangle()}}); err == nil {
		t.Error("no trials derivation should error")
	}
	// Derivation path works when all inputs are present.
	if _, err := runCount(st, Job{Kind: JobEstimate, Config: Config{
		Pattern: pattern.Triangle(), Epsilon: 0.5, LowerBound: 1, EdgeBound: 10,
	}}); err != nil {
		t.Errorf("derived-trials config rejected: %v", err)
	}
}

func TestTrialsForMonotonicity(t *testing.T) {
	// More edges or tighter eps or smaller lower bound => more trials.
	base := TrialsFor(1000, 1.5, 0.2, 100)
	if TrialsFor(4000, 1.5, 0.2, 100) <= base {
		t.Error("trials should grow with m")
	}
	if TrialsFor(1000, 1.5, 0.1, 100) <= base {
		t.Error("trials should grow as eps shrinks")
	}
	if TrialsFor(1000, 1.5, 0.2, 10) <= base {
		t.Error("trials should grow as the lower bound shrinks")
	}
	if TrialsFor(0, 1.5, 0.2, 100) != 1 {
		t.Error("m=0 should give 1")
	}
}

func TestTrialsCap(t *testing.T) {
	cfg := Config{
		Pattern:    pattern.CycleGraph(7), // rho = 3.5: astronomical counts
		Epsilon:    0.01,
		LowerBound: 1,
		EdgeBound:  1 << 30,
		MaxTrials:  1234,
	}
	got, err := cfg.trials()
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Errorf("trials=%d, want the 1234 cap", got)
	}
}

func TestSampleSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.Complete(6)
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		r, err := runJob(stream.FromGraph(g), Job{Kind: JobSample, Config: Config{
			Pattern: pattern.Triangle(), Trials: 200, Seed: seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		cp, ok := r.Copy, r.Found
		if ok {
			found = true
			if len(cp.Edges) != 3 || len(cp.Vertices) != 3 {
				t.Errorf("copy: %d edges, %d vertices", len(cp.Edges), len(cp.Vertices))
			}
		}
	}
	if !found {
		t.Error("no sample found on K6 in 10 attempts")
	}
	_ = rng
}

func TestEstimateCliquesRejectsTurnstile(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.Cycle(10)
	ts := stream.WithDeletions(g, 0.5, rng)
	_, err := runCount(ts, Job{Kind: JobCliques, Clique: CliqueConfig{R: 3, Lambda: 2, Epsilon: 0.4, LowerBound: 1}})
	if err == nil {
		t.Error("turnstile stream should be rejected (Theorem 2 is insertion-only)")
	}
}

func TestEstimateCliquesEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.BarabasiAlbert(rng, 200, 3)
	want := exact.Cliques(g, 3)
	if want < 20 {
		t.Skipf("few triangles: %d", want)
	}
	est, err := runCount(stream.FromGraph(g), Job{Kind: JobCliques, Clique: CliqueConfig{
		R: 3, Lambda: 3, Epsilon: 0.4, LowerBound: float64(want) / 2, Seed: 8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Passes > 15 {
		t.Errorf("passes=%d > 5r=15", est.Passes)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.6 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}
