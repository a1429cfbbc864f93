package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// sessionWorkload returns an insertion-only graph with planted structure so
// every job kind has something to find.
func sessionWorkload(t *testing.T) *stream.Slice {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	g := gen.ErdosRenyiGNM(rng, 120, 900)
	gen.PlantCliques(rng, g, 4, 6)
	if exact.Triangles(g) < 20 {
		t.Fatal("workload has too few triangles")
	}
	return stream.FromGraph(g)
}

// TestSessionBitIdenticalToStandalone is the session engine's core contract:
// a job submitted alongside arbitrary other jobs returns exactly the result
// it returns standalone, and the whole session costs max-rounds shared
// passes, not the sum.
func TestSessionBitIdenticalToStandalone(t *testing.T) {
	sl := sessionWorkload(t)
	tri := pattern.Triangle()
	c5 := pattern.CycleGraph(5)

	estCfg := Config{Pattern: tri, Trials: 8000, Seed: 5}
	c5Cfg := Config{Pattern: c5, Trials: 4000, Seed: 6}
	smpCfg := Config{Pattern: tri, Trials: 3000, Seed: 7}
	clqCfg := CliqueConfig{R: 3, Lambda: 16, Epsilon: 0.4, LowerBound: 50, Seed: 8}
	disCfg := Config{Pattern: tri, Trials: 8000, Epsilon: 0.4, Seed: 9}

	// Standalone references (each of these is itself a single-job session,
	// so this also pins the pre-session behavior preserved by the rewrite).
	wantEst, err := EstimateSubgraphs(sl, estCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantC5, err := EstimateSubgraphs(sl, c5Cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy, wantFound, err := SampleSubgraph(sl, smpCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantClq, err := EstimateCliques(sl, clqCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAbove, wantDis, err := Distinguish(sl, disCfg, 10)
	if err != nil {
		t.Fatal(err)
	}

	// The same five jobs, one session, one stream: the external Counter
	// observes the true shared I/O.
	cnt := stream.NewCounter(sl)
	s := NewSession(cnt)
	hEst := s.SubmitEstimate(estCfg)
	hC5 := s.SubmitEstimate(c5Cfg)
	hSmp := s.SubmitSample(smpCfg)
	hClq := s.SubmitCliques(clqCfg)
	hDis := s.SubmitDistinguish(disCfg, 10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		got, want *CountResult
	}{
		{"estimate", hEst.res.Est, wantEst},
		{"estimate-C5", hC5.res.Est, wantC5},
		{"cliques", hClq.res.Est, wantClq},
		{"distinguish", hDis.res.Est, wantDis},
	} {
		if c.got == nil {
			t.Fatalf("%s: nil estimate", c.name)
		}
		if *c.got != *c.want {
			t.Errorf("%s: session result %+v != standalone %+v", c.name, *c.got, *c.want)
		}
	}
	if hSmp.res.Found != wantFound {
		t.Errorf("sample: found=%v, want %v", hSmp.res.Found, wantFound)
	}
	if hDis.res.Above != wantAbove {
		t.Errorf("distinguish: above=%v, want %v", hDis.res.Above, wantAbove)
	}
	if wantFound {
		if len(hSmp.res.Copy.Edges) != len(wantCopy.Edges) {
			t.Fatalf("sample: %d edges, want %d", len(hSmp.res.Copy.Edges), len(wantCopy.Edges))
		}
		for i := range wantCopy.Edges {
			if hSmp.res.Copy.Edges[i] != wantCopy.Edges[i] {
				t.Errorf("sample edge %d: %v != %v", i, hSmp.res.Copy.Edges[i], wantCopy.Edges[i])
			}
		}
	}

	// Shared passes = max over per-job round counts, never the sum.
	maxRounds := int64(0)
	sum := int64(0)
	for _, h := range []*JobHandle{hEst, hC5, hSmp, hClq, hDis} {
		if h.Passes() > maxRounds {
			maxRounds = h.Passes()
		}
		sum += h.Passes()
	}
	if got := cnt.Passes(); got != maxRounds {
		t.Errorf("shared passes=%d, want max per-job rounds %d (sum would be %d)", got, maxRounds, sum)
	}
	if s.Passes() != cnt.Passes() {
		t.Errorf("Session.Passes=%d, external counter=%d", s.Passes(), cnt.Passes())
	}
	if sum <= maxRounds {
		t.Fatalf("degenerate workload: sum of rounds %d not larger than max %d", sum, maxRounds)
	}
}

// TestSessionSharedPassCountExact pins the acceptance bound directly: K
// identical-shape FGP jobs over one insertion stream cost exactly 3 shared
// passes.
func TestSessionSharedPassCountExact(t *testing.T) {
	sl := sessionWorkload(t)
	cnt := stream.NewCounter(sl)
	s := NewSession(cnt)
	const k = 5
	handles := make([]*JobHandle, k)
	for i := range handles {
		handles[i] = s.SubmitEstimate(Config{Pattern: pattern.Triangle(), Trials: 2000, Seed: int64(i)})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cnt.Passes() != 3 {
		t.Errorf("%d jobs cost %d shared passes, want 3", k, cnt.Passes())
	}
	for i, h := range handles {
		if h.Passes() != 3 {
			t.Errorf("job %d rode %d passes, want 3", i, h.Passes())
		}
		if h.res.Err != nil {
			t.Errorf("job %d: %v", i, h.res.Err)
		}
	}
}

// TestSessionTurnstile runs mixed jobs over a turnstile stream through the
// relaxed-model runner: same contracts, deletions present.
func TestSessionTurnstile(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := gen.ErdosRenyiGNM(rng, 60, 400)
	ts := stream.WithDeletions(g, 0.5, rng)
	if ts.InsertOnly() {
		t.Fatal("precondition: turnstile stream")
	}
	cfg := Config{Pattern: pattern.Triangle(), Trials: 1500, Seed: 3}
	want, err := EstimateSubgraphs(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cnt := stream.NewCounter(ts)
	s := NewSession(cnt)
	h1 := s.SubmitEstimate(cfg)
	h2 := s.SubmitEstimate(Config{Pattern: pattern.Triangle(), Trials: 1000, Seed: 4})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if *h1.res.Est != *want {
		t.Errorf("turnstile session result %+v != standalone %+v", *h1.res.Est, *want)
	}
	if h2.res.Err != nil {
		t.Fatal(h2.res.Err)
	}
	if cnt.Passes() != 3 {
		t.Errorf("shared passes=%d, want 3", cnt.Passes())
	}
	// Cliques on a turnstile session must fail (Theorem 2 is insertion-only)
	// without disturbing anything else.
	s2 := NewSession(ts)
	hc := s2.SubmitCliques(CliqueConfig{R: 3, Lambda: 4, Epsilon: 0.4, LowerBound: 1})
	if err := s2.Run(); err == nil || hc.res.Err == nil {
		t.Error("cliques job on turnstile stream should error")
	}
}

// TestSessionJobErrorIsIsolated: a failing job reports its error without
// poisoning the other jobs in the session.
func TestSessionJobErrorIsIsolated(t *testing.T) {
	sl := sessionWorkload(t)
	cfg := Config{Pattern: pattern.Triangle(), Trials: 2000, Seed: 11}
	want, err := EstimateSubgraphs(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(sl)
	bad := s.SubmitEstimate(Config{}) // nil pattern
	good := s.SubmitEstimate(cfg)
	if err := s.Run(); err == nil {
		t.Error("Run should surface the failing job's error")
	}
	if bad.res.Err == nil {
		t.Error("bad job should carry its error")
	}
	if good.res.Err != nil {
		t.Fatalf("good job poisoned: %v", good.res.Err)
	}
	if *good.res.Est != *want {
		t.Errorf("good job result %+v != standalone %+v", *good.res.Est, *want)
	}
}

// TestSessionLifecycleGuards: single-shot semantics.
func TestSessionLifecycleGuards(t *testing.T) {
	sl := sessionWorkload(t)
	s := NewSession(sl)
	if err := s.Run(); err != nil {
		t.Fatalf("empty session: %v", err)
	}
	if err := s.Run(); err == nil {
		t.Error("second Run should error")
	}
	h := s.SubmitEstimate(Config{Pattern: pattern.Triangle(), Trials: 10, Seed: 1})
	if h.res.Err == nil {
		t.Error("Submit after Run should carry an error")
	}
}

// TestSharedReplayWithEarlyFinisher: an FGP job none of whose trials
// survives round 2 is done after two passes (fgp.Result.Rounds), and that is
// an ordinary outcome for the shared replay — the job leaves the generation,
// the one that still needs round 3 gets its third pass, and both results are
// the standalone ones. The stream is a perfect matching: every vertex has
// degree 1 ≤ S, so a triangle trial's neighbour draw j ∈ [S] fails unless
// j = 1, and a one-trial job stops after round 2 or goes on to round 3
// depending on its seed alone.
func TestSharedReplayWithEarlyFinisher(t *testing.T) {
	g := graph.New(16)
	for v := int64(0); v < 16; v += 2 {
		g.AddEdge(v, v+1)
	}
	sl := stream.FromGraph(g)
	cfgFor := func(passes int64) (Config, *CountResult) {
		for seed := int64(0); seed < 64; seed++ {
			cfg := Config{Pattern: pattern.Triangle(), Trials: 1, Seed: seed}
			est, err := EstimateSubgraphs(sl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if est.Passes == passes {
				return cfg, est
			}
		}
		t.Fatalf("no one-trial seed below 64 takes %d passes", passes)
		return Config{}, nil
	}
	earlyCfg, wantEarly := cfgFor(2)
	fullCfg, wantFull := cfgFor(3)

	before := runtime.NumGoroutine()
	cnt := stream.NewCounter(sl)
	s := NewSession(cnt)
	hEarly, hFull := s.SubmitEstimate(earlyCfg), s.SubmitEstimate(fullCfg)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cnt.Passes() != 3 || hEarly.Passes() != 2 || hFull.Passes() != 3 {
		t.Errorf("passes: shared %d, early job %d, full job %d; want 3, 2, 3", cnt.Passes(), hEarly.Passes(), hFull.Passes())
	}
	if got := hEarly.Result().Est; *got != *wantEarly {
		t.Errorf("early finisher: session result %+v != standalone %+v", *got, *wantEarly)
	}
	if got := hFull.Result().Est; *got != *wantFull {
		t.Errorf("full job: session result %+v != standalone %+v", *got, *wantFull)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before the session, %d after", before, n)
	}
}
