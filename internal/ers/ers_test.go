package ers

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// exactActiveness returns the paper's ideal activeness rule computed from
// the graph: a prefix ⃗I of length i is active iff the number of ordered
// completions of ⃗I to an r-clique, (r-i)!·#{cliques ⊇ ⃗I}, is at most τ_i/4.
func exactActiveness(g *graph.Graph, p Params) func([]int64) bool {
	return func(prefix []int64) bool {
		c := exact.CliquesContaining(g, p.R, prefix)
		ordered := float64(c) * factorial(p.R-len(prefix))
		return ordered <= p.tau(len(prefix))/4
	}
}

func relErr(est float64, want int64) float64 {
	if want == 0 {
		return est
	}
	return math.Abs(est-float64(want)) / float64(want)
}

func baWithCliques(seed int64, n, k int64, r, cnt int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbert(rng, n, k)
	gen.PlantCliques(rng, g, r, cnt)
	return g
}

func TestParamsValidation(t *testing.T) {
	base := Params{R: 3, Lambda: 2, Eps: 0.3, L: 10}
	if _, err := base.withDefaults(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{R: 2, Lambda: 2, Eps: 0.3, L: 10},
		{R: 3, Lambda: 0, Eps: 0.3, L: 10},
		{R: 3, Lambda: 2, Eps: 0, L: 10},
		{R: 3, Lambda: 2, Eps: 1.5, L: 10},
		{R: 3, Lambda: 2, Eps: 0.3, L: 0},
	}
	for i, b := range bad {
		if _, err := b.withDefaults(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, b)
		}
	}
}

func TestPaperConstantsAreHuge(t *testing.T) {
	// Sanity-check the documented reason for the practical defaults: the
	// paper's constants exceed any feasible sample count.
	if c := PaperTauC(3, 0.1); c < 1e9 {
		t.Errorf("PaperTauC(3, 0.1) = %g unexpectedly small", c)
	}
	if c := PaperSampleC(3, 0.1); c < 1e4 {
		t.Errorf("PaperSampleC(3, 0.1) = %g unexpectedly small", c)
	}
}

func TestTauProfile(t *testing.T) {
	p, _ := Params{R: 4, Lambda: 5, Eps: 0.5, L: 10}.withDefaults()
	if p.tau(4) != 1 {
		t.Errorf("τ_r = %g, want 1", p.tau(4))
	}
	// τ_t must scale as λ^{r-t}.
	ratio := p.tau(2) / p.tau(3)
	if math.Abs(ratio-float64(p.Lambda)*2) > 1e-9 { // (r-2)!/(r-3)! = 2 with λ
		t.Errorf("τ_2/τ_3 = %g, want 2λ = %g", ratio, 2*float64(p.Lambda))
	}
}

func TestCountTrianglesExactActiveness(t *testing.T) {
	// Validate the sampling chain + assignment rule with the ideal
	// activeness oracle (isolates Algorithm 3/4 from StrAct noise).
	g := baWithCliques(1, 300, 3, 3, 6)
	want := exact.Cliques(g, 3)
	lambda, _ := graph.Degeneracy(g)
	p := Params{R: 3, Lambda: lambda, Eps: 0.4, L: float64(want) / 2, Q: 7, SampleC: 40}
	rng := rand.New(rand.NewSource(2))
	r := oracle.NewDirect(g, oracle.Augmented, rng)
	res, err := CountWithActiveness(r, p, rng, exactActiveness(g, mustDefaults(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.35 {
		t.Errorf("estimate %.1f vs %d triangles: rel err %.3f", res.Estimate, want, e)
	}
}

func mustDefaults(t *testing.T, p Params) Params {
	t.Helper()
	p, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCountK4ExactActiveness(t *testing.T) {
	g := baWithCliques(3, 120, 2, 4, 8)
	want := exact.Cliques(g, 4)
	if want < 8 {
		t.Fatalf("precondition: #K4 = %d", want)
	}
	lambda, _ := graph.Degeneracy(g)
	p := Params{R: 4, Lambda: lambda, Eps: 0.4, L: float64(want), Q: 7, SampleC: 3}
	rng := rand.New(rand.NewSource(4))
	r := oracle.NewDirect(g, oracle.Augmented, rng)
	res, err := CountWithActiveness(r, p, rng, exactActiveness(g, mustDefaults(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.6 {
		t.Errorf("estimate %.1f vs %d K4s: rel err %.3f", res.Estimate, want, e)
	}
}

func TestCountTrianglesFullStreaming(t *testing.T) {
	// The full Theorem 2 pipeline: streaming runner + StrAct activeness.
	g := baWithCliques(5, 250, 3, 3, 5)
	want := exact.Cliques(g, 3)
	lambda, _ := graph.Degeneracy(g)
	rng := rand.New(rand.NewSource(6))
	cnt := stream.NewCounter(stream.Shuffled(stream.FromGraph(g), rng))
	run, err := transform.NewInsertionRunner(cnt, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{R: 3, Lambda: lambda, Eps: 0.4, L: float64(want) / 2, Q: 5, QAct: 7, SampleC: 40}
	res, err := Count(run, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.5 {
		t.Errorf("estimate %.1f vs %d triangles: rel err %.3f", res.Estimate, want, e)
	}
	if cnt.Passes() > int64(5*p.R) {
		t.Errorf("passes=%d exceeds Theorem 2's 5r=%d", cnt.Passes(), 5*p.R)
	}
	if res.Rounds != cnt.Passes() {
		t.Errorf("rounds %d != passes %d", res.Rounds, cnt.Passes())
	}
}

func TestCountK4FullStreaming(t *testing.T) {
	g := baWithCliques(7, 120, 2, 4, 8)
	want := exact.Cliques(g, 4)
	lambda, _ := graph.Degeneracy(g)
	rng := rand.New(rand.NewSource(8))
	cnt := stream.NewCounter(stream.Shuffled(stream.FromGraph(g), rng))
	run, err := transform.NewInsertionRunner(cnt, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{R: 4, Lambda: lambda, Eps: 0.4, L: float64(want), Q: 3, QAct: 5, SampleC: 3}
	res, err := Count(run, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.Estimate, want); e > 0.7 {
		t.Errorf("estimate %.1f vs %d K4s: rel err %.3f", res.Estimate, want, e)
	}
	if cnt.Passes() > int64(5*p.R) {
		t.Errorf("passes=%d exceeds 5r=%d", cnt.Passes(), 5*p.R)
	}
}

func TestCountZeroCliques(t *testing.T) {
	g := gen.Grid(8, 8) // bipartite: no triangles
	rng := rand.New(rand.NewSource(9))
	r := oracle.NewDirect(g, oracle.Augmented, rng)
	p := Params{R: 3, Lambda: 2, Eps: 0.4, L: 1, Q: 3, SampleC: 5}
	res, err := Count(r, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Errorf("estimate %.2f on triangle-free graph, want 0", res.Estimate)
	}
}

func TestCountEmptyGraph(t *testing.T) {
	g := graph.New(10)
	rng := rand.New(rand.NewSource(10))
	r := oracle.NewDirect(g, oracle.Augmented, rng)
	p := Params{R: 3, Lambda: 1, Eps: 0.4, L: 1}
	res, err := Count(r, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.M != 0 {
		t.Errorf("empty graph: est=%.2f m=%d", res.Estimate, res.M)
	}
}

func TestCountAbortOnSampleCutoff(t *testing.T) {
	// Algorithm 3 line 13: the invocation aborts when s_{t+1} explodes,
	// which happens when L is far too small.
	g := baWithCliques(11, 120, 3, 3, 3)
	lambda, _ := graph.Degeneracy(g)
	rng := rand.New(rand.NewSource(12))
	r := oracle.NewDirect(g, oracle.Augmented, rng)
	p := Params{R: 3, Lambda: lambda, Eps: 0.4, L: 0.0001, Q: 3, SampleC: 40, MaxLevelSamples: 500}
	res, err := Count(r, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Errorf("expected aborted invocations with tiny L and a small cap")
	}
}

// assignEnv is the environment of an assignment job under an activeness
// override, which starts no chains.
func assignEnv(t *testing.T, p Params) *chainEnv {
	return &chainEnv{p: mustDefaults(t, p), rng: rand.New(rand.NewSource(1))}
}

func TestAssignmentRuleOnePerClique(t *testing.T) {
	// With all prefixes active, exactly the sorted (lex-min) ordering of
	// each clique is assigned.
	env := assignEnv(t, Params{R: 3, Lambda: 2, Eps: 0.4, L: 5})
	rr := []int64{3, 1, 2, 1, 2, 3, 2, 1, 3}
	degs := []int64{5, 5, 5, 5, 5, 5, 5, 5, 5}
	job := newAssignJob(env, rr, degs, func([]int64) bool { return true })
	if got := job.assignedCount(); got != 1 {
		t.Errorf("assigned %d of 3 orderings of the same clique, want 1", got)
	}
	// And with no prefix active, none are assigned.
	job = newAssignJob(env, rr, degs, func([]int64) bool { return false })
	if got := job.assignedCount(); got != 0 {
		t.Errorf("assigned %d with all-inactive prefixes, want 0", got)
	}
}

func TestAssignmentLexMinActive(t *testing.T) {
	// Only orderings starting with prefix (2,x) are active: the assigned
	// ordering must be the lex-min among those, i.e. (2,1,3).
	env := assignEnv(t, Params{R: 3, Lambda: 2, Eps: 0.4, L: 5})
	rr := []int64{1, 2, 3, 2, 1, 3}
	degs := []int64{5, 5, 5, 5, 5, 5}
	act := func(prefix []int64) bool { return prefix[0] == 2 }
	job := newAssignJob(env, rr, degs, act)
	if got := job.assignedCount(); got != 1 {
		t.Errorf("assignedCount=%d, want 1 (only (2,1,3) assigned)", got)
	}
}

func TestPermutationsLexOrder(t *testing.T) {
	var got [][]int
	ord := make([]int, 3)
	for more := firstPermutation(ord); more; more = nextPermutation(ord) {
		got = append(got, slices.Clone(ord))
	}
	want := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d permutations, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("perm %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 9}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v)=%g, want %g", c.in, got, c.want)
		}
	}
}

func TestDegeneracyScalingSpace(t *testing.T) {
	// Theorem 2's space bound scales with λ^{r-2}: higher-degeneracy inputs
	// should force larger sample sets (s_2 ∝ τ_2 ∝ λ^{r-2}) at equal L.
	pLow := mustDefaults(t, Params{R: 4, Lambda: 2, Eps: 0.4, L: 50})
	pHigh := mustDefaults(t, Params{R: 4, Lambda: 8, Eps: 0.4, L: 50})
	if pHigh.tau(2) <= pLow.tau(2) {
		t.Errorf("τ_2 should grow with λ: %g vs %g", pHigh.tau(2), pLow.tau(2))
	}
	ratio := pHigh.tau(2) / pLow.tau(2)
	want := math.Pow(8.0/2.0, 2) // λ^{r-2}
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("τ_2 ratio %g, want λ-ratio^{r-2} = %g", ratio, want)
	}
}

func TestCountAbortOnFirstChainStep(t *testing.T) {
	// The cap sits between s_2 and s_3: R_2 is sampled, and the level chain
	// aborts on its very first step. Such an invocation used to pass for a
	// finished one, its R_2 for R_r: sampled edges counted as triangles at
	// r = 3, and a slice-bounds panic in the assignment job beyond.
	for _, r := range []int{3, 4} {
		g := baWithCliques(3, 300, 3, int64(r), 30)
		count := func(p Params) *Result {
			res, err := Count(oracle.NewDirect(g, oracle.Augmented, rand.New(rand.NewSource(1))), p, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// s_3 ≈ s_2·(mean dg of a sampled edge)·τ_3/τ_2, so thresholds this
		// flat make it exceed s_2.
		p := Params{R: r, Lambda: 1, Eps: 0.4, L: 45, TauC: 1, SampleC: 1}
		p.MaxLevelSamples = count(p).S2Sizes[0]
		res := count(p)
		if res.Aborted != len(res.PerInvocation) || res.Estimate != 0 {
			t.Errorf("r=%d: %d of %d invocations aborted, estimate %v; want all, 0", r, res.Aborted, len(res.PerInvocation), res.Estimate)
		}
		for j, est := range res.PerInvocation {
			if est != 0 || res.RrSizes[j] != 0 {
				t.Errorf("r=%d: aborted invocation %d reports estimate %v from |R_r| = %d", r, j, est, res.RrSizes[j])
			}
		}
	}
}

func TestChainDiesOutOnZeroDegrees(t *testing.T) {
	// dg(R_t) = 0 cannot come from a consistent oracle — a sampled vertex
	// has an edge — but the chain must end there, with an empty R_t, rather
	// than draw from an empty range.
	env := &chainEnv{p: mustDefaults(t, Params{R: 3, Lambda: 2, Eps: 0.4, L: 5}), rng: rand.New(rand.NewSource(1))}
	var c levelChain
	c.start(env, 2, []int64{1, 2, 3, 4}, []int64{0, 7, 5, 0}, 1)
	if qs, done := c.Step(nil, nil); !done || len(qs) != 0 || c.size() != 0 || c.aborted {
		t.Errorf("chain over dg(R_2) = 0: %d queries, done %v, |R_t| = %d, aborted %v", len(qs), done, c.size(), c.aborted)
	}
}
