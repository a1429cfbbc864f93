package streamcount_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamcount"
)

// fgpGoldenGraph is BarabasiAlbert(seed 9, 400, 3) with its second hub grown
// until its degree is exactly S = ⌈√(2m)⌉, so the FGP degree branch
// (deg(u₁) ≤ S low, > S high) is exercised on both sides of the boundary: the
// first hub stays above S, the grown one sits on it.
func fgpGoldenGraph(t *testing.T) *streamcount.Graph {
	t.Helper()
	g := streamcount.BarabasiAlbert(rand.New(rand.NewSource(9)), 400, 3)
	hub, second := int64(0), int64(1)
	if g.Degree(second) > g.Degree(hub) {
		hub, second = second, hub
	}
	for v := int64(2); v < g.N(); v++ {
		switch d := g.Degree(v); {
		case d > g.Degree(hub):
			hub, second = v, hub
		case d > g.Degree(second):
			second = v
		}
	}
	sOf := func() int64 { return int64(math.Ceil(math.Sqrt(float64(2 * g.M())))) }
	for v := int64(0); g.Degree(second) < sOf(); v++ {
		if v != second {
			g.AddEdge(second, v)
		}
	}
	if s := sOf(); g.Degree(hub) <= s || g.Degree(second) != s {
		t.Fatalf("golden graph: hub degrees %d, %d against S = %d; want one above S and one equal to it",
			g.Degree(hub), g.Degree(second), s)
	}
	return g
}

// TestFGPValueGoldenCatalog pins what an FGP query answers — the estimate on
// both stream models and the sampled copy — to the values recorded on the
// commit before the degree branch moved into round 2 (ISSUE 22). That change
// and any later one to which queries a round asks may move Queries and
// SpaceWords; it may not move a number in this table.
func TestFGPValueGoldenCatalog(t *testing.T) {
	g := fgpGoldenGraph(t)
	ins := streamcount.StreamFromGraph(g)
	tst := streamcount.TurnstileFromGraph(g, 0.3, rand.New(rand.NewSource(10)))
	for _, name := range []string{"triangle", "butterfly", "house", "paw", "bull"} {
		p, err := streamcount.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := fgpValueGolden[name]
		for seed := 0; seed < 4; seed++ {
			for _, par := range []int{1, 2, 3} {
				opts := []streamcount.QueryOption{streamcount.WithSeed(int64(seed)), streamcount.WithParallelism(par)}
				got := fgpGoldenRow{}
				for i, c := range []struct {
					st     streamcount.Stream
					trials int
				}{{ins, 30000}, {tst, 300}} {
					est, err := streamcount.Run(context.Background(), c.st,
						streamcount.CountQuery(p, append(opts, streamcount.WithTrials(c.trials))...))
					if err != nil {
						t.Fatal(err)
					}
					got.value[i] = est.Value
				}
				smp, err := streamcount.Run(context.Background(), ins,
					streamcount.SampleQuery(p, append(opts, streamcount.WithTrials(30000))...))
				if err != nil {
					t.Fatal(err)
				}
				if smp.Found {
					got.sample = fmt.Sprint(smp.Copy.Edges)
				}
				if got != want[seed] {
					t.Errorf("%s seed %d parallelism %d: %+v, want %+v", name, seed, par, got, want[seed])
				}
			}
		}
	}
}

// fgpGoldenRow is one (pattern, seed) cell: the insertion-only estimate at
// 30 000 trials, the turnstile estimate at 300, and the sampled copy's edges
// ("" when no trial witnessed one).
type fgpGoldenRow struct {
	value  [2]float64
	sample string
}

var fgpValueGolden = map[string][4]fgpGoldenRow{
	"triangle": {
		{value: [2]float64{196.32666666666665, 0}, sample: "[(16,91) (7,91) (7,16)]"},
		{value: [2]float64{160.26666666666665, 0}, sample: "[(4,162) (3,162) (3,4)]"},
		{value: [2]float64{188.3133333333333, 400.66666666666663}, sample: "[(17,326) (151,326) (17,151)]"},
		{value: [2]float64{196.32666666666665, 0}, sample: "[(1,65) (2,65) (1,2)]"},
	},
	"butterfly": {
		{value: [2]float64{4816.013333333332, 0}, sample: ""},
		{value: [2]float64{0, 0}, sample: ""},
		{value: [2]float64{4816.013333333332, 0}, sample: ""},
		{value: [2]float64{0, 0}, sample: ""},
	},
	"house": {
		{value: [2]float64{14448.039999999997, 0}, sample: "[(4,12) (0,4) (0,12) (12,57) (0,3) (3,57)]"},
		{value: [2]float64{4816.013333333332, 0}, sample: ""},
		{value: [2]float64{14448.039999999997, 0}, sample: ""},
		{value: [2]float64{0, 0}, sample: ""},
	},
	"paw": {
		{value: [2]float64{13846.038333333332, 19264.053333333333}, sample: "[(12,75) (10,12) (0,12) (0,10)]"},
		{value: [2]float64{14520.2802, 4816.013333333333}, sample: "[(12,45) (3,12) (4,12) (3,4)]"},
		{value: [2]float64{15820.603799999999, 16856.046666666665}, sample: "[(0,3) (0,12) (3,12) (12,206)]"},
		{value: [2]float64{15603.883199999998, 14448.039999999999}, sample: "[(16,33) (12,33) (12,16) (12,75)]"},
	},
	"bull": {
		{value: [2]float64{347330.88159999996, 0}, sample: ""},
		{value: [2]float64{463107.84213333327, 0}, sample: ""},
		{value: [2]float64{231553.92106666663, 0}, sample: ""},
		{value: [2]float64{115776.96053333332, 0}, sample: ""},
	},
}
