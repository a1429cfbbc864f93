package fgp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pattern"
)

// boundaryGraph is K10 with pendants hung on vertices 0 and 1 so that, with
// S = ⌈√(2m)⌉ = 11, vertex 0 has degree 15 > S, vertex 1 has degree exactly S
// and the other clique vertices have degree 9 < S: every cycle-bearing pattern
// has copies whose u₁ falls on each side of the degree branch and on the
// boundary itself.
func boundaryGraph(t *testing.T) *graph.Graph {
	t.Helper()
	k := gen.Complete(10)
	g := graph.New(18)
	for _, e := range k.Edges() {
		g.AddEdge(e.U, e.V)
	}
	for p := int64(10); p < 16; p++ {
		g.AddEdge(0, p)
	}
	g.AddEdge(1, 16)
	g.AddEdge(1, 17)
	s := int64(math.Ceil(math.Sqrt(float64(2 * g.M()))))
	if g.Degree(0) <= s || g.Degree(1) != s || g.Degree(2) >= s {
		t.Fatalf("boundary graph: degrees %d, %d, %d against S = %d", g.Degree(0), g.Degree(1), g.Degree(2), s)
	}
	return g
}

// twoTriangles is two vertex-disjoint triangles. Two odd cycles joined by an
// edge always admit a perfect matching, which Decompose prefers on a tie, so
// the smallest pattern whose decomposition holds two cycles is a disconnected
// one: one trial takes the degree branch twice and draws its coins for both.
func twoTriangles() *pattern.Pattern {
	return pattern.MustNew("two-triangles", 6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
}

// TestTrialOutcomeGolden pins the sampler's per-trial decisions on the direct
// oracle in both models: hits, the weight sum and its spread were recorded on
// the commit before the degree branch moved into round 2 (ISSUE 22). A change
// to which queries a round asks may not move them — every coin a surviving
// trial flips, and the order it flips them in, is part of the result.
func TestTrialOutcomeGolden(t *testing.T) {
	g := boundaryGraph(t)
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.CycleGraph(5), pattern.Butterfly(), pattern.House(), twoTriangles(), pattern.Paw()}
	if pl := mustPlan(t, twoTriangles()); len(pl.ks) != 2 {
		t.Fatalf("two-triangles decomposes into %d cycles, want 2", len(pl.ks))
	}
	i := 0
	for _, p := range pats {
		pl := mustPlan(t, p)
		for _, model := range []oracle.Model{oracle.Augmented, oracle.Relaxed} {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				res, err := CountParallel(oracle.NewDirect(g, model, rng), pl, 100000, rng, 1)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%s %v %d: hits %d est %v stderr %v", p.Name(), model, seed, res.Hits, res.Estimate, res.StdErr)
				if got != trialOutcomeGolden[i] {
					t.Errorf("got  %s\nwant %s", got, trialOutcomeGolden[i])
				}
				i++
			}
		}
	}
}

var trialOutcomeGolden = []string{
	"C3 augmented 1: hits 10213 est 119.08358 stderr 1.1165652778606512",
	"C3 augmented 2: hits 10256 est 119.58496 stderr 1.118645395419474",
	"C3 relaxed 1: hits 10138 est 118.20908 stderr 1.1129224558878592",
	"C3 relaxed 2: hits 10319 est 120.31953999999999 stderr 1.1216819963995563",
	"C5 augmented 1: hits 2425 est 2997.203 stderr 60.12176733860199",
	"C5 augmented 2: hits 2414 est 2983.60744 stderr 59.98863479314402",
	"C5 relaxed 1: hits 2472 est 3055.2931200000003 stderr 60.68697350495854",
	"C5 relaxed 2: hits 2430 est 3003.3828000000003 stderr 60.18217462003232",
	"butterfly augmented 1: hits 4036 est 3741.2509200000004 stderr 57.68960965164359",
	"butterfly augmented 2: hits 4038 est 3743.1048600000004 stderr 57.70330032895288",
	"butterfly relaxed 1: hits 4128 est 3826.53216 stderr 58.31544426265183",
	"butterfly relaxed 2: hits 4094 est 3795.0151800000003 stderr 58.08508894730106",
	"house augmented 1: hits 4036 est 14965.003680000002 stderr 230.75843860657437",
	"house augmented 2: hits 4038 est 14972.419440000001 stderr 230.8132013158115",
	"house relaxed 1: hits 4128 est 15306.12864 stderr 233.26177705060732",
	"house relaxed 2: hits 4094 est 15180.060720000001 stderr 232.34035578920424",
	"two-triangles augmented 1: hits 277 est 1882.9850600000002 stderr 112.98136794047055",
	"two-triangles augmented 2: hits 308 est 2093.71624 stderr 119.11728587526139",
	"two-triangles relaxed 1: hits 311 est 2114.1095800000003 stderr 119.69419574304708",
	"two-triangles relaxed 2: hits 287 est 1950.96286 stderr 114.99689557766214",
	"paw augmented 1: hits 65560 est 2820.5730800000006 stderr 8.172459483027932",
	"paw augmented 2: hits 65544 est 2818.8736350000004 stderr 8.17179383199541",
	"paw relaxed 1: hits 65560 est 2820.5730800000006 stderr 8.172459483027932",
	"paw relaxed 2: hits 65544 est 2818.8736350000004 stderr 8.17179383199541",
}
