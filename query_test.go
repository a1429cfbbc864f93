package streamcount_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"streamcount"
)

func queryWorkload(t testing.TB) (*streamcount.Graph, streamcount.Stream) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := streamcount.ErdosRenyi(rng, 100, 900)
	return g, streamcount.StreamFromGraph(g)
}

// TestRunCountQueryMatchesLegacyEstimate: the typed query path returns,
// bit for bit, what the removed pre-query-API Estimate(Config{Trials: 5000,
// Seed: 21}) returned on this workload.
func TestRunCountQueryMatchesLegacyEstimate(t *testing.T) {
	_, st := queryWorkload(t)
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamcount.Run(context.Background(), st,
		streamcount.CountQuery(p, streamcount.WithTrials(5000), streamcount.WithSeed(21)))
	if err != nil {
		t.Fatal(err)
	}
	want := streamcount.CountResult{Value: 835.9200000000001, M: 900, Passes: 3, Queries: 30723, SpaceWords: 45723, Trials: 5000}
	if *got != want {
		t.Errorf("CountQuery %+v != legacy Estimate %+v", *got, want)
	}
}

// TestCountQueryDefaultsEdgeBoundToStreamLength: deriving the trial budget
// needs an edge bound; the query layer defaults it to the stream length so
// WithEpsilon+WithLowerBound alone are a complete specification.
func TestCountQueryDefaultsEdgeBoundToStreamLength(t *testing.T) {
	g, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	want := streamcount.ExactCount(g, p)
	if want == 0 {
		t.Skip("no triangles in workload")
	}
	got, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
		streamcount.WithEpsilon(0.3),
		streamcount.WithLowerBound(float64(want)),
		streamcount.WithSeed(2),
	))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials < 1 {
		t.Errorf("derived trials = %d", got.Trials)
	}
	// Same query with the explicit stream-length bound must be identical.
	explicit, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
		streamcount.WithEpsilon(0.3),
		streamcount.WithLowerBound(float64(want)),
		streamcount.WithEdgeBound(st.Len()),
		streamcount.WithSeed(2),
	))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *explicit {
		t.Errorf("default edge bound %+v != explicit stream length %+v", *got, *explicit)
	}
}

// TestAutoQueryEpsilonDefaultFixed: AutoQuery defaults ε to 0.1 like every
// other query kind. The pin is what the removed pre-query-API EstimateAuto
// returned at an explicit ε = 0.1 on this workload.
func TestAutoQueryEpsilonDefaultFixed(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	want := streamcount.CountResult{Value: 977.7622274602239, M: 900, Passes: 18, Queries: 328402, SpaceWords: 488767, Trials: 27152}
	for _, q := range []streamcount.TypedQuery[*streamcount.CountResult]{
		streamcount.AutoQuery(p, streamcount.WithSeed(4)),
		streamcount.AutoQuery(p, streamcount.WithEpsilon(0.1), streamcount.WithSeed(4)),
	} {
		got, err := streamcount.Run(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Errorf("AutoQuery: %+v != legacy at explicit ε=0.1 %+v", *got, want)
		}
	}

	// The stream-length edge-bound default applies to Auto even when a trial
	// budget is given (the geometric search always needs the AGM start m^ρ;
	// it derives its per-guess budgets itself, so WithTrials does not pin
	// them — but it must not make the query unrunnable either).
	fixed, err := streamcount.Run(context.Background(), st,
		streamcount.AutoQuery(p, streamcount.WithTrials(2000), streamcount.WithSeed(4)))
	if err != nil {
		t.Fatalf("AutoQuery with WithTrials: %v", err)
	}
	if fixed.Trials < 1 {
		t.Errorf("auto search reported %d trials", fixed.Trials)
	}
}

// TestRunTypedQueries exercises every query kind end to end through the
// typed Run.
func TestRunTypedQueries(t *testing.T) {
	g, st := queryWorkload(t)
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")
	exact := streamcount.ExactCount(g, p)
	if exact == 0 {
		t.Skip("no triangles in workload")
	}

	if est, err := streamcount.Run(ctx, st, streamcount.CountQuery(p,
		streamcount.WithTrials(40000), streamcount.WithSeed(1))); err != nil {
		t.Fatal(err)
	} else if est.Passes != 3 {
		t.Errorf("count passes=%d, want 3", est.Passes)
	}

	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		sr, err := streamcount.Run(ctx, st, streamcount.SampleQuery(p,
			streamcount.WithTrials(500), streamcount.WithSeed(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if sr.Found {
			found = true
			if len(sr.Copy.Edges) != 3 {
				t.Errorf("sampled copy has %d edges", len(sr.Copy.Edges))
			}
			if sr.Passes != 3 {
				t.Errorf("sample passes=%d, want 3", sr.Passes)
			}
		}
	}
	if !found {
		t.Error("no sample in 20 attempts")
	}

	lambda, _ := streamcount.Degeneracy(g)
	clq, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(3,
		streamcount.WithLambda(lambda),
		streamcount.WithEpsilon(0.4),
		streamcount.WithLowerBound(float64(exact)/2),
		streamcount.WithSeed(6),
	))
	if err != nil {
		t.Fatal(err)
	}
	if clq.Passes > 15 {
		t.Errorf("clique passes=%d exceeds 5r=15", clq.Passes)
	}

	dec, err := streamcount.Run(ctx, st, streamcount.DistinguishQuery(p, float64(exact)/4,
		streamcount.WithTrials(40000), streamcount.WithEpsilon(0.4), streamcount.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Above {
		t.Errorf("distinguish at l=#H/4 should report above; estimate %v", dec.Estimate.Value)
	}
	if dec.Estimate == nil || dec.Estimate.Passes != 3 {
		t.Errorf("distinguish estimate %+v, want 3 passes", dec.Estimate)
	}
}

// TestQueryValidationErrors: constructor misuse surfaces typed sentinels.
func TestQueryValidationErrors(t *testing.T) {
	_, st := queryWorkload(t)
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")

	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(nil)); !errors.Is(err, streamcount.ErrBadPattern) {
		t.Errorf("nil pattern: %v, want ErrBadPattern", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(2, streamcount.WithLambda(3), streamcount.WithLowerBound(1))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("r<3: %v, want ErrBadConfig", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(3, streamcount.WithLowerBound(1))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("missing lambda: %v, want ErrBadConfig", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.DistinguishQuery(p, 0, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("zero threshold: %v, want ErrBadConfig", err)
	}
}

// TestOversizedUniverseIsBadConfig: a stream declaring more vertices than a
// packed edge key can tell apart is the caller's mistake, in both stream
// models, for every query kind and on the watch path.
func TestOversizedUniverseIsBadConfig(t *testing.T) {
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")
	ins := streamcount.Update{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Insert}
	del := streamcount.Update{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Delete}
	for name, ups := range map[string][]streamcount.Update{"insertion": {ins}, "turnstile": {ins, del, ins}} {
		st, err := streamcount.NewStream(1<<33, ups)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(p, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrBadConfig) {
			t.Errorf("%s count: %v, want ErrBadConfig", name, err)
		}
		if _, err := streamcount.Run(ctx, st, streamcount.SampleQuery(p, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrBadConfig) {
			t.Errorf("%s sample: %v, want ErrBadConfig", name, err)
		}
	}
	// A turnstile stream's limit is lower, ⌊√2⁶³⌋ vertices: its packed edge
	// keys feed ℓ0-samplers, which return no key of 2⁶³ or more. Between the
	// two limits the insertion-only model answers and the turnstile one refuses.
	for name, ups := range map[string][]streamcount.Update{"insertion": {ins}, "turnstile": {ins, del, ins}} {
		st, err := streamcount.NewStream(3037000500, ups)
		if err != nil {
			t.Fatal(err)
		}
		_, err = streamcount.Run(ctx, st, streamcount.CountQuery(p, streamcount.WithTrials(10)))
		if turnstile := name == "turnstile"; turnstile != errors.Is(err, streamcount.ErrBadConfig) || !turnstile && err != nil {
			t.Errorf("%s count over ⌊√2⁶³⌋+1 vertices: %v, want ErrBadConfig from the turnstile model only", name, err)
		}
	}

	st, err := streamcount.NewStream(1<<33, []streamcount.Update{ins})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(3, streamcount.WithLambda(2), streamcount.WithLowerBound(1))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("cliques: %v, want ErrBadConfig", err)
	}

	app, err := streamcount.NewAppendableStream(1<<33, streamcount.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := streamcount.NewEngine(app)
	defer e.Close()
	sub, err := streamcount.Watch(ctx, e, "", streamcount.CountQuery(p, streamcount.WithTrials(10)), streamcount.WatchEveryVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := e.Append("", []streamcount.Update{ins}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if !errors.Is(ev.Err, streamcount.ErrBadConfig) {
			t.Errorf("watch event: %v, want ErrBadConfig", ev.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no watch event")
	}
}

// TestRunHonorsContext: an already-canceled context fails with ErrCanceled
// before any pass, and both sentinel and context error match.
func TestRunHonorsContext(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := streamcount.Run(ctx, st, streamcount.CountQuery(p,
		streamcount.WithTrials(1000), streamcount.WithSeed(1)))
	if !errors.Is(err, streamcount.ErrCanceled) {
		t.Errorf("error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, should also match context.Canceled", err)
	}
}

// TestEngineFacade: heterogeneous queries through one Engine, typed Do,
// untyped Submit outcomes, named streams, and bit-identity to Run.
func TestEngineFacade(t *testing.T) {
	_, st := queryWorkload(t)
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")
	c5, _ := streamcount.PatternByName("C5")

	e := streamcount.NewEngine(st, streamcount.WithAdmissionWindow(20*time.Millisecond))
	defer e.Close()

	countQ := streamcount.CountQuery(p, streamcount.WithTrials(4000), streamcount.WithSeed(31))
	want, err := streamcount.Run(ctx, st, countQ)
	if err != nil {
		t.Fatal(err)
	}

	type done struct {
		est *streamcount.CountResult
		err error
	}
	ch := make(chan done, 1)
	go func() {
		est, err := streamcount.Do(ctx, e, countQ)
		ch <- done{est, err}
	}()
	// A second, differently-shaped query rides the same engine concurrently.
	out, err := e.Submit(ctx, streamcount.CountQuery(c5, streamcount.WithTrials(2000), streamcount.WithSeed(32)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "count" || out.Count == nil || out.Sample != nil || out.Decision != nil {
		t.Errorf("outcome %+v: want only Count set", out)
	}
	first := <-ch
	if first.err != nil {
		t.Fatal(first.err)
	}
	if *first.est != *want {
		t.Errorf("engine Do %+v != one-shot Run %+v", *first.est, *want)
	}

	// Named stream registry.
	rng := rand.New(rand.NewSource(12))
	g2 := streamcount.ErdosRenyi(rng, 60, 400)
	st2 := streamcount.StreamFromGraph(g2)
	if err := e.RegisterStream("other", st2); err != nil {
		t.Fatal(err)
	}
	want2, err := streamcount.Run(ctx, st2, countQ)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := streamcount.DoOn(ctx, e, "other", countQ)
	if err != nil {
		t.Fatal(err)
	}
	if *got2 != *want2 {
		t.Errorf("named stream Do %+v != Run %+v", *got2, *want2)
	}
	if _, err := streamcount.DoOn(ctx, e, "missing", countQ); !errors.Is(err, streamcount.ErrUnknownStream) {
		t.Errorf("unknown stream: %v, want ErrUnknownStream", err)
	}

	// Sanity on the sharing accounting: every generation of 3-round jobs
	// costs 3 passes on its lane.
	if got, gens := e.Passes()+e.PassesOn("other"), e.Generations(); got != 3*gens {
		t.Errorf("passes=%d, want 3*generations=%d", got, 3*gens)
	}
}

// TestEngineFacadeClose: close rejects new queries with ErrEngineClosed.
func TestEngineFacadeClose(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	e := streamcount.NewEngine(st)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := streamcount.Do(context.Background(), e,
		streamcount.CountQuery(p, streamcount.WithTrials(10)))
	if !errors.Is(err, streamcount.ErrEngineClosed) {
		t.Errorf("submit after close: %v, want ErrEngineClosed", err)
	}
}
