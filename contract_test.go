package streamcount_test

// The paper's checkable promises, asserted through the public API as failure
// rates over seeds. Every case is seeded, so each run of the suite draws the
// same estimates: a failure is a change in behaviour, never a flake.
//
//   - TestContractEstimate: Theorem 17 (insertion-only) and Theorem 1
//     (turnstile) — CountQuery is (1±ε)-accurate in 3 passes.
//   - TestContractCliques: Theorem 2 — CliqueQuery is (1±ε)-accurate in at
//     most 5r passes per lower-bound guess (Lemma 21).
//   - TestContractSampleUniform: Lemma 16/18 — SampleQuery returns a uniform
//     copy, in both stream models.
//
// Each test logs its table, so `go test -run Contract -v .` reproduces the
// evaluation.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"streamcount"
	"streamcount/internal/gen"
	"streamcount/internal/pattern"
)

// raceEnabled is set under the race detector, which slows the contract
// suite past any useful budget. Its cases are sequential loops over the same
// code the race-run tests already cover, so the suite skips itself there
// and runs at one core, without -race, in its own CI step.
var raceEnabled bool

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the contract suite runs without the race detector")
	}
}

// contractFailRate is the per-run failure probability the estimators are
// held to: TrialsFor's constant c = 3 puts the Chebyshev bound on
// P[|est − #H| > ε·#H] at 1/3 when L = #H.
const contractFailRate = 1.0 / 3

// contractFailBound returns the smallest k with P[Bin(s, 1/3) > k] ≤ 10⁻³:
// the most ε-failures s independent runs may show before the suite concludes
// the failure probability exceeds 1/3, at a false-alarm rate of one in a
// thousand. The binomial tail is summed exactly from its pmf, which the
// ratio pmf(k+1)/pmf(k) = (s−k)/(k+1) · p/(1−p) builds without factorials.
func contractFailBound(s int) int {
	pmf := make([]float64, s+1)
	pmf[0] = math.Pow(1-contractFailRate, float64(s))
	for k := 0; k < s; k++ {
		pmf[k+1] = pmf[k] * float64(s-k) / float64(k+1) * contractFailRate / (1 - contractFailRate)
	}
	tail := 0.0 // P[X > k-1] after adding pmf[k]
	for k := s; k > 0; k-- {
		tail += pmf[k]
		if tail > 1e-3 {
			return k
		}
	}
	return 0
}

func TestContractFailBound(t *testing.T) {
	// P[Bin(60, 1/3) > 32] = 4.5e-4 and P[Bin(60, 1/3) > 31] = 1.1e-3.
	for _, c := range []struct{ s, want int }{{60, 32}, {30, 18}, {1, 1}} {
		if got := contractFailBound(c.s); got != c.want {
			t.Errorf("contractFailBound(%d) = %d, want %d", c.s, got, c.want)
		}
	}
}

// contractRow accumulates one case's runs.
type contractRow struct {
	fails        int
	sumRel, maxR float64
	passes       int64 // largest Passes seen
	trials       int   // largest Trials seen
}

func (r *contractRow) add(est float64, want int64, eps float64) {
	rel := math.Abs(est-float64(want)) / float64(want)
	if rel > eps {
		r.fails++
	}
	r.sumRel += rel
	r.maxR = math.Max(r.maxR, rel)
}

// oddCyclePasses is the pass count CountQuery must report for p: 3 when its
// decomposition has an odd cycle (round 2 samples the cycle's closing
// neighbour), 2 when it is stars only and round 2 has nothing to ask.
func oddCyclePasses(t *testing.T, p *streamcount.Pattern) int64 {
	t.Helper()
	d, err := pattern.Decompose(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.CycleLengths()) > 0 {
		return 3
	}
	return 2
}

func mustPattern(t *testing.T, name string) *streamcount.Pattern {
	t.Helper()
	p, err := streamcount.PatternByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestContractEstimate asserts Theorem 17 (insertion-only) and Theorem 1
// (turnstile): at ε and L = #H, CountQuery misses by more than ε·#H on at
// most contractFailBound(S) of S seeds, reports exactly the decomposition's
// pass count, and stays under the default trial cap (a capped run is outside
// the theorem's hypothesis).
//
// FGP's heavy branch (deg(u₁) > ⌈√2m⌉) decides a triangle only when all
// three of its vertices are heavy. On ChungLu(1000, 2.1, 30) that is 1 % of
// the triangles, too few for any error rate to notice the branch; on the hub
// clique it is all of them, and every u₁ has about twice ⌈√2m⌉ neighbours.
//
// S3 is left out: on BA(2000, 10) its Theorem 1 budget exceeds the
// 1 000 000-trial cap, so every run would be under-budgeted, outside the
// theorem's hypothesis.
func TestContractEstimate(t *testing.T) {
	skipUnderRace(t)
	type estimateCase struct {
		name   string
		p      string
		g      func(rng *rand.Rand) *streamcount.Graph
		eps    float64
		decoys float64 // turnstile decoy ratio; < 0 for insertion-only
		seeds  int
	}
	er := func(n, m int64) func(*rand.Rand) *streamcount.Graph {
		return func(rng *rand.Rand) *streamcount.Graph { return gen.ErdosRenyiGNM(rng, n, m) }
	}
	dense := func(rng *rand.Rand) *streamcount.Graph {
		return gen.PlantCliques(rng, gen.ErdosRenyiGNM(rng, 40, 300), 4, 6)
	}
	cases := []estimateCase{
		{"triangle ER(300,6000)", "triangle", er(300, 6000), 0.3, -1, 60},
		{"triangle ER(300,6000) eps=0.15", "triangle", er(300, 6000), 0.15, -1, 60},
		{"triangle ChungLu(1000,2.1,30)", "triangle", func(rng *rand.Rand) *streamcount.Graph {
			return gen.ChungLu(rng, 1000, 2.1, 30)
		}, 0.3, -1, 60},
		{"triangle hubs K30+200 leaves each", "triangle", func(*rand.Rand) *streamcount.Graph { return hubClique(30, 200) }, 0.3, -1, 60},
		{"triangle BA(2000,10)", "triangle", func(rng *rand.Rand) *streamcount.Graph {
			return gen.BarabasiAlbert(rng, 2000, 10)
		}, 0.3, -1, 30},
		{"C4 ER(200,2000)", "C4", er(200, 2000), 0.3, -1, 30},
		{"C5 ER(100,600)", "C5", er(100, 600), 0.3, -1, 30},
		{"paw ER(40,300)+6 K4", "paw", dense, 0.3, -1, 60},
		{"diamond ER(40,300)+6 K4", "diamond", dense, 0.3, -1, 60},
		{"K4 ER(40,300)+6 K4", "K4", dense, 0.3, -1, 30},
		{"turnstile triangle ER(64,1300) decoys=0.3", "triangle", er(64, 1300), 0.3, 0.3, 60},
		{"turnstile triangle ER(64,1300) decoys=2.0", "triangle", er(64, 1300), 0.3, 2.0, 60},
	}
	ctx := context.Background()
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			g := c.g(rng)
			p := mustPattern(t, c.p)
			want := streamcount.ExactCount(g, p)
			if want == 0 {
				t.Fatalf("host has no %s", c.p)
			}
			var st streamcount.Stream
			if c.decoys < 0 {
				var err error
				if st, err = streamcount.ShuffledStream(streamcount.StreamFromGraph(g), rng); err != nil {
					t.Fatal(err)
				}
			} else {
				st = streamcount.TurnstileFromGraph(g, c.decoys, rng)
			}
			wantPasses := oddCyclePasses(t, p)
			var row contractRow
			start := time.Now()
			for seed := int64(1); seed <= int64(c.seeds); seed++ {
				res, err := streamcount.Run(ctx, st, streamcount.CountQuery(p,
					streamcount.WithEpsilon(c.eps),
					streamcount.WithLowerBound(float64(want)),
					streamcount.WithSeed(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Passes != wantPasses {
					t.Errorf("seed %d: %d passes, want %d", seed, res.Passes, wantPasses)
				}
				if res.Trials >= 1_000_000 {
					t.Fatalf("seed %d: %d trials hits the default cap: outside Theorem 17's hypothesis", seed, res.Trials)
				}
				row.add(res.Value, want, c.eps)
				row.trials = max(row.trials, res.Trials)
			}
			bound := contractFailBound(c.seeds)
			t.Logf("%-44s n=%-5d m=%-5d len=%-5d #H=%-7d trials=%-7d passes=%d  fails %2d/%d (bound %d)  mean rel.err %.3f  max %.3f  %.1f ms/query",
				c.name, g.N(), g.M(), st.Len(), want, row.trials, wantPasses, row.fails, c.seeds, bound,
				row.sumRel/float64(c.seeds), row.maxR, float64(time.Since(start).Microseconds())/1e3/float64(c.seeds))
			if row.fails > bound {
				t.Errorf("%d of %d seeds miss by more than ε=%g: above the %d that a 1/3 failure rate allows", row.fails, c.seeds, c.eps, bound)
			}
		})
	}
}

// hubClique returns K_h whose every vertex also carries its own leaves
// pendant vertices: every triangle lies in the clique, on vertices of degree
// h−1+leaves.
func hubClique(h, leaves int64) *streamcount.Graph {
	g := streamcount.NewGraph(h + h*leaves)
	for u := int64(0); u < h; u++ {
		for v := u + 1; v < h; v++ {
			g.AddEdge(u, v)
		}
		for i := int64(0); i < leaves; i++ {
			g.AddEdge(u, h+u*leaves+i)
		}
	}
	return g
}

// TestContractCliques asserts Theorem 2 for CliqueQuery on low-degeneracy
// hosts: every lower-bound guess of the Lemma 21 search costs at most 5r
// passes, and with the true degeneracy λ the estimate misses by more than
// ε·#K_r on at most contractFailBound(S) of S seeds. With λ halved the
// theorem's hypothesis (λ bounds the degeneracy) fails, so that rate is only
// logged.
func TestContractCliques(t *testing.T) {
	skipUnderRace(t)
	type cliqueCase struct {
		name string
		r    int
		g    func(rng *rand.Rand) *streamcount.Graph
		// seeds[h][s] is the seed count at the true (h = 0) or halved λ, with
		// L = #K_r (s = 0) or the search (s = 1). A K4 search costs about
		// 1.7 s on one core, so it runs four seeds: too few for the failure
		// bound to bite, but each still checks the pass bound.
		seeds [2][2]int
	}
	cases := []cliqueCase{
		{"K3 BA(800,3)", 3, func(rng *rand.Rand) *streamcount.Graph {
			return gen.BarabasiAlbert(rng, 800, 3)
		}, [2][2]int{{30, 30}, {12, 6}}},
		{"K4 BA(80,2)+6 K4", 4, func(rng *rand.Rand) *streamcount.Graph {
			return gen.PlantCliques(rng, gen.BarabasiAlbert(rng, 80, 2), 4, 6)
		}, [2][2]int{{12, 4}, {6, 3}}},
	}
	// ERS's sample sizes grow as 1/ε², so the clique rows run at 0.4 to keep
	// a K4 query near half a second.
	const eps = 0.4
	ctx := context.Background()
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(2000 + ci)))
		g := c.g(rng)
		want := streamcount.ExactCount(g, mustPattern(t, fmt.Sprintf("K%d", c.r)))
		lambda, _ := streamcount.Degeneracy(g)
		st, err := streamcount.ShuffledStream(streamcount.StreamFromGraph(g), rng)
		if err != nil {
			t.Fatal(err)
		}
		guesses := searchLadder(st.Len(), c.r)
		for h, lam := range []int64{lambda, max(lambda/2, 1)} {
			for s, mode := range []string{"L=#K", "search"} {
				name := fmt.Sprintf("%s λ=%d %s", c.name, lam, mode)
				seeds := c.seeds[h][s]
				t.Run(name, func(t *testing.T) {
					query := func(seed int64, l float64) *streamcount.CountResult {
						t.Helper()
						opts := []streamcount.QueryOption{
							streamcount.WithLambda(lam), streamcount.WithEpsilon(eps), streamcount.WithSeed(seed),
						}
						if l > 0 {
							opts = append(opts, streamcount.WithLowerBound(l))
						}
						res, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(c.r, opts...))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					var row contractRow
					var first *streamcount.CountResult
					start := time.Now()
					for seed := int64(1); seed <= int64(seeds); seed++ {
						var res *streamcount.CountResult
						if s == 0 {
							res = query(seed, float64(want))
							if res.Passes > int64(5*c.r) {
								t.Errorf("seed %d: %d passes > 5r = %d", seed, res.Passes, 5*c.r)
							}
						} else {
							res = query(seed, 0)
							if res.Passes > int64(5*c.r*len(guesses)) {
								t.Errorf("seed %d: %d passes > 5r for each of the %d guesses", seed, res.Passes, len(guesses))
							}
						}
						if seed == 1 {
							first = res
						}
						row.add(res.Value, want, eps)
						row.passes = max(row.passes, res.Passes)
					}
					elapsed := time.Since(start)
					if s == 1 {
						// Replay seed 1's search one guess at a time: each guess
						// re-seeds from the query's seed, so it is the run an
						// explicit lower bound makes. Every guess must stay
						// within 5r, and together they must be the search.
						var sum int64
						var last *streamcount.CountResult
						for _, l := range guesses {
							last = query(1, l)
							if last.Passes > int64(5*c.r) {
								t.Errorf("guess L=%g: %d passes > 5r = %d", l, last.Passes, 5*c.r)
							}
							sum += last.Passes
							if last.Value >= l {
								break
							}
						}
						if sum != first.Passes || last.Value != first.Value {
							t.Errorf("guess by guess: %d passes, estimate %v; the search reports %d, %v", sum, last.Value, first.Passes, first.Value)
						}
					}
					bound := contractFailBound(seeds)
					t.Logf("%-28s n=%-4d m=%-5d #K=%-4d max passes=%-3d fails %2d/%d (bound %d)  mean rel.err %.3f  max %.3f  %.0f ms/query",
						name, g.N(), g.M(), want, row.passes, row.fails, seeds, bound,
						row.sumRel/float64(seeds), row.maxR, float64(elapsed.Milliseconds())/float64(seeds))
					if h == 0 && row.fails > bound {
						t.Errorf("%d of %d seeds miss by more than ε=%g: above the %d that a 1/3 failure rate allows", row.fails, seeds, eps, bound)
					}
				})
			}
		}
	}
}

// searchLadder lists the lower bounds Lemma 21's search tries over an
// m-edge stream for K_r, in order: m^{r/2}, then halving while L ≥ 0.5.
func searchLadder(m int64, r int) []float64 {
	var out []float64
	for l := math.Max(math.Pow(float64(m), float64(r)/2), 0.5); l >= 0.5; l /= 2 {
		out = append(out, l)
	}
	return out
}

// TestContractSampleUniform asserts Lemma 16/18: SampleQuery returns each of
// K6's 20 triangles equally often, in both stream models. The turnstile host
// has two extra vertices, so decoy edges are inserted and deleted around the
// clique; they leave the final graph, and its 20 triangles, unchanged.
func TestContractSampleUniform(t *testing.T) {
	skipUnderRace(t)
	const (
		invocations = 3000
		// chi2Crit is the 99.9 % quantile of χ² with 19 degrees of freedom.
		chi2Crit = 43.82
	)
	p := mustPattern(t, "triangle")
	ctx := context.Background()
	for _, model := range []string{"insertion", "turnstile"} {
		t.Run(model, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			g := streamcount.NewGraph(8)
			for u := int64(0); u < 6; u++ {
				for v := u + 1; v < 6; v++ {
					g.AddEdge(u, v)
				}
			}
			copies := streamcount.ExactCount(g, p)
			st := streamcount.StreamFromGraph(g)
			if model == "turnstile" {
				st = streamcount.TurnstileFromGraph(g, 0.5, rng)
			}
			counts := make(map[[3]int64]int)
			found := 0
			for seed := int64(1); seed <= invocations; seed++ {
				res, err := streamcount.Run(ctx, st, streamcount.SampleQuery(p,
					streamcount.WithTrials(30), streamcount.WithSeed(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Found {
					continue
				}
				var key [3]int64
				copy(key[:], res.Copy.Vertices)
				sort.Slice(key[:], func(i, j int) bool { return key[i] < key[j] })
				if len(res.Copy.Vertices) != 3 || key[0] == key[1] || key[1] == key[2] || key[2] >= 6 {
					t.Fatalf("seed %d: sampled %v, not a triangle of the K6", seed, res.Copy.Vertices)
				}
				counts[key]++
				found++
			}
			mean := float64(found) / float64(copies)
			chi2 := float64(copies-int64(len(counts))) * mean // copies never seen
			minC, maxC := math.Inf(1), 0.0
			if int64(len(counts)) < copies {
				minC = 0
			}
			for _, n := range counts {
				chi2 += (float64(n) - mean) * (float64(n) - mean) / mean
				minC, maxC = math.Min(minC, float64(n)), math.Max(maxC, float64(n))
			}
			t.Logf("%-9s samples %d/%d  copies seen %d/%d  min/mean %.3f  max/mean %.3f  χ² %.2f (crit %.2f, df %d)",
				model, found, invocations, len(counts), copies, minC/mean, maxC/mean, chi2, chi2Crit, copies-1)
			if chi2 > chi2Crit {
				t.Errorf("χ² = %.2f over %d samples exceeds the 99.9%% quantile %.2f: samples are not uniform", chi2, found, chi2Crit)
			}
		})
	}
}
