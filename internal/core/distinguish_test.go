package core

import (
	"math/rand"
	"testing"

	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

func TestDistinguishSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.ErdosRenyiGNM(rng, 40, 250)
	want := float64(exact.Triangles(g))
	if want < 20 {
		t.Skipf("few triangles: %.0f", want)
	}
	st := stream.FromGraph(g)
	cfg := Config{Pattern: pattern.Triangle(), Trials: 40000, Epsilon: 0.4, Seed: 42}

	// Threshold far below the truth: must answer "at least (1+eps)l".
	r, err := runJob(st, Job{Kind: JobDistinguish, Config: cfg, Threshold: want / 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Above {
		t.Errorf("l=%0.f (truth %.0f): want above=true, estimate %.1f", want/4, want, r.Est.Value)
	}
	// Threshold far above the truth: must answer "at most l".
	r, err = runJob(st, Job{Kind: JobDistinguish, Config: cfg, Threshold: want * 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Above {
		t.Errorf("l=%0.f (truth %.0f): want above=false, estimate %.1f", want*4, want, r.Est.Value)
	}
}

func TestDistinguishValidation(t *testing.T) {
	st, _ := stream.NewSlice(3, nil)
	cfg := Config{Pattern: pattern.Triangle(), Trials: 10}
	if _, err := runJob(st, Job{Kind: JobDistinguish, Config: cfg}); err == nil {
		t.Error("l=0 should be rejected")
	}
	if _, err := runJob(st, Job{Kind: JobDistinguish, Config: Config{Pattern: pattern.Triangle()}, Threshold: 5}); err == nil {
		t.Error("missing trials/edge bound should be rejected")
	}
}

func TestEstimateSubgraphsAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := gen.ErdosRenyiGNM(rng, 40, 260)
	want := float64(exact.Triangles(g))
	if want < 30 {
		t.Skipf("few triangles: %.0f", want)
	}
	st := stream.FromGraph(g)
	est, err := runCount(st, Job{Kind: JobAuto, Config: Config{
		Pattern:   pattern.Triangle(),
		Epsilon:   0.4,
		EdgeBound: g.M(),
		MaxTrials: 200000,
		Seed:      44,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value < want/3 || est.Value > want*3 {
		t.Errorf("auto estimate %.1f vs truth %.0f", est.Value, want)
	}
	// A guess costs at most 3 passes, and fewer only when none of its trials
	// survives round 2 — which cannot be the guess that found the triangles.
	if est.Passes < 3 {
		t.Errorf("passes=%d: the validating guess alone costs 3", est.Passes)
	}
}

// TestEstimateAutoCumulativePasses pins the geometric search's pass
// accounting: the reported passes cover every guess made (at most 3 per
// guess — a guess none of whose trials survives round 2 stops early), not
// only the final validating guess, and agree with the session scheduler's
// per-job round count.
func TestEstimateAutoCumulativePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := gen.ErdosRenyiGNM(rng, 40, 260)
	want := float64(exact.Triangles(g))
	if want < 30 {
		t.Skipf("few triangles: %.0f", want)
	}
	sl := stream.FromGraph(g)
	cfg := Config{
		Pattern:   pattern.Triangle(),
		Epsilon:   0.4,
		EdgeBound: g.M(),
		MaxTrials: 200000,
		Seed:      46,
	}
	cnt := stream.NewCounter(sl)
	s := NewSession(cnt)
	h := s.Submit(Job{Kind: JobAuto, Config: cfg})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	est := h.Result().Est
	if est.Passes != h.Passes() {
		t.Errorf("estimate reports %d passes, scheduler served %d", est.Passes, h.Passes())
	}
	if est.Passes != cnt.Passes() {
		t.Errorf("estimate reports %d passes, stream saw %d", est.Passes, cnt.Passes())
	}
	// The search starts at the AGM bound m^1.5 >> #H, so it must have taken
	// more than one guess: single-guess accounting would report at most 3.
	if est.Passes <= 3 {
		t.Errorf("passes=%d: cumulative accounting should cover all guesses (> 3)", est.Passes)
	}
	// And the whole thing must match a standalone RunJob bit-for-bit.
	plain, err := runCount(sl, Job{Kind: JobAuto, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *est {
		t.Errorf("standalone auto job %+v != session auto job %+v", *plain, *est)
	}
}

func TestEstimateSubgraphsAutoNeedsEdgeBound(t *testing.T) {
	st, _ := stream.NewSlice(3, nil)
	if _, err := runCount(st, Job{Kind: JobAuto, Config: Config{Pattern: pattern.Triangle()}}); err == nil {
		t.Error("missing EdgeBound should be rejected")
	}
}
