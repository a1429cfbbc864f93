package streamcount_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"streamcount"
)

// The four TestFacade* value pins below hold the query path to the values
// the pre-query-API wrappers (Estimate, Sample, EstimateCliques) returned
// for the same knobs before those wrappers were removed.

func TestFacadeQuickstart(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g := streamcount.ErdosRenyi(rng, 30, 150)
	want := streamcount.ExactCount(g, p)
	est, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g),
		streamcount.CountQuery(p, streamcount.WithTrials(40000), streamcount.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	pin := streamcount.CountResult{Value: 174.28499999999997, M: 150, Passes: 3, Queries: 272258, SpaceWords: 392258, Trials: 40000}
	if *est != pin {
		t.Errorf("estimate %+v, want pinned %+v", *est, pin)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.3 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

func TestFacadeDerivedTrials(t *testing.T) {
	p, _ := streamcount.PatternByName("triangle")
	rng := rand.New(rand.NewSource(2))
	g := streamcount.ErdosRenyi(rng, 25, 120)
	want := streamcount.ExactCount(g, p)
	est, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g), streamcount.CountQuery(p,
		streamcount.WithEpsilon(0.3),
		streamcount.WithLowerBound(float64(want)),
		streamcount.WithEdgeBound(g.M()),
		streamcount.WithSeed(3),
	))
	if err != nil {
		t.Fatal(err)
	}
	pin := streamcount.CountResult{Value: 90.74113856068743, M: 120, Passes: 3, Queries: 6463, SpaceWords: 9256, Trials: 931}
	if *est != pin {
		t.Errorf("estimate %+v, want pinned %+v", *est, pin)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.6 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

func TestFacadeConfigErrors(t *testing.T) {
	ctx := context.Background()
	st, _ := streamcount.NewStream(3, nil)
	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(nil, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrBadPattern) {
		t.Errorf("missing pattern: %v, want ErrBadPattern", err)
	}
	p, _ := streamcount.PatternByName("triangle")
	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(p)); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("missing trials derivation inputs: %v, want ErrBadConfig", err)
	}
}

func TestFacadeSample(t *testing.T) {
	p, _ := streamcount.PatternByName("triangle")
	rng := rand.New(rand.NewSource(4))
	g := streamcount.ErdosRenyi(rng, 20, 80)
	r, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g),
		streamcount.SampleQuery(p, streamcount.WithTrials(500), streamcount.WithSeed(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.Passes != 3 {
		t.Fatalf("found=%v passes=%d, want a copy in 3 passes", r.Found, r.Passes)
	}
	wantEdges := []streamcount.Edge{{U: 6, V: 18}, {U: 6, V: 11}, {U: 11, V: 18}}
	wantVertices := []int64{6, 11, 18}
	if len(r.Copy.Edges) != len(wantEdges) || len(r.Copy.Vertices) != len(wantVertices) {
		t.Fatalf("sampled copy %+v, want pinned edges %v vertices %v", r.Copy, wantEdges, wantVertices)
	}
	for i, e := range r.Copy.Edges {
		if e != wantEdges[i] || r.Copy.Vertices[i] != wantVertices[i] {
			t.Errorf("sampled copy %+v, want pinned edges %v vertices %v", r.Copy, wantEdges, wantVertices)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v not in graph", e)
		}
	}
}

func TestFacadeEstimateCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := streamcount.BarabasiAlbert(rng, 200, 3)
	p, _ := streamcount.PatternByName("K3")
	want := streamcount.ExactCount(g, p)
	lambda, _ := streamcount.Degeneracy(g)
	est, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g), streamcount.CliqueQuery(3,
		streamcount.WithLambda(lambda),
		streamcount.WithEpsilon(0.4),
		streamcount.WithLowerBound(float64(want)/2),
		streamcount.WithSeed(6),
	))
	if err != nil {
		t.Fatal(err)
	}
	pin := streamcount.CountResult{Value: 135.1585365637635, M: 594, Passes: 7, Queries: 190404, SpaceWords: 302826}
	if *est != pin {
		t.Errorf("estimate %+v, want pinned %+v", *est, pin)
	}
	if est.Passes > 15 {
		t.Errorf("passes=%d exceeds 5r=15", est.Passes)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.6 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

func TestFacadeEstimateCliquesRejectsTurnstile(t *testing.T) {
	var ups []streamcount.Update
	ups = append(ups,
		streamcount.Update{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Insert},
		streamcount.Update{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Delete},
	)
	st, err := streamcount.NewStream(3, ups)
	if err != nil {
		t.Fatal(err)
	}
	_, err = streamcount.Run(context.Background(), st, streamcount.CliqueQuery(3,
		streamcount.WithLambda(1), streamcount.WithEpsilon(0.4), streamcount.WithLowerBound(1)))
	if err == nil || !strings.Contains(err.Error(), "insertion-only") {
		t.Errorf("want insertion-only error, got %v", err)
	}
}

// TestFacadeEngineSharedReplay: several patterns admitted into one Engine
// generation are served by one shared replay, each bit-identical to its
// standalone Run.
func TestFacadeEngineSharedReplay(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	g := streamcount.ErdosRenyi(rng, 80, 600)
	st := streamcount.StreamFromGraph(g)

	names := []string{"triangle", "C5", "paw"}
	queries := make([]streamcount.TypedQuery[*streamcount.CountResult], len(names))
	standalone := make([]*streamcount.CountResult, len(names))
	for i, name := range names {
		p, err := streamcount.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = streamcount.CountQuery(p, streamcount.WithTrials(3000), streamcount.WithSeed(int64(20+i)))
		standalone[i], err = streamcount.Run(ctx, st, queries[i])
		if err != nil {
			t.Fatal(err)
		}
	}

	// The window outlasts the three goroutine launches, so all three
	// queries join the generation the first one opens.
	e := streamcount.NewEngine(st, streamcount.WithAdmissionWindow(500*time.Millisecond))
	defer e.Close()
	got := make([]*streamcount.CountResult, len(names))
	errs := make(chan error, len(names))
	for i := range queries {
		go func(i int) {
			var err error
			got[i], err = streamcount.Do(ctx, e, queries[i])
			errs <- err
		}(i)
	}
	for range queries {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range names {
		if *got[i] != *standalone[i] {
			t.Errorf("%s: engine %+v != standalone %+v", names[i], *got[i], *standalone[i])
		}
	}
	if e.Generations() != 1 || e.Passes() != 3 {
		t.Errorf("generations=%d shared passes=%d, want 1 generation of 3 passes for %d queries",
			e.Generations(), e.Passes(), len(names))
	}
}

func TestFacadeReadGraph(t *testing.T) {
	in := "3 2\n0 1\n1 2\n"
	g, err := streamcount.ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
}

func TestTrialsFor(t *testing.T) {
	if k := streamcount.TrialsFor(100, 1.5, 0.1, 10); k < 100 {
		t.Errorf("TrialsFor too small: %d", k)
	}
	if k := streamcount.TrialsFor(0, 1.5, 0.1, 10); k != 1 {
		t.Errorf("empty graph trials=%d, want 1", k)
	}
}
