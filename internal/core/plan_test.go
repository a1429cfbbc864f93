package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// planDigest folds every number a plan runs with — the edge bound, ε's
// bits, the pass bound, and each rung's L bits and trials — into one FNV-1a
// hash, so a pin catches a change in any rung of a long ladder.
func planDigest(p Plan) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(p.EdgeBound))
	mix(math.Float64bits(p.Epsilon))
	mix(uint64(p.PassBound))
	for _, r := range p.Rungs {
		mix(math.Float64bits(r.L))
		mix(uint64(r.Trials))
	}
	return h
}

// TestPlanDeterministicBudgets pins the budget arithmetic — TrialsFor's
// pow and division, the MaxTrials cap, Lemma 21's ladder and the pass
// bounds — over a grid of (ρ, m, ε, L) and every ladder rung, so a
// platform whose libm or float contraction differs fails here rather than
// in an estimate. L = 0 asks for the search.
func TestPlanDeterministicBudgets(t *testing.T) {
	type pin struct {
		rungs       int
		first, last int // trials at the first and last rung
		passes      int64
		firstL      uint64 // float64 bits of the first rung's L
		digest      uint64
	}
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.CycleGraph(4), pattern.House(), pattern.CycleGraph(7)}
	want := map[string]pin{
		"C3 ρ=1.5 m=1000 ε=0 L=0":                   {16, 848, 1000000, 3, 0x40dee1b1b3d78c79, 0xbbc1c3856430b60},
		"C3 ρ=1.5 m=1000 ε=0 L=1.00000025e+06":      {1, 26, 26, 3, 0x412e848080000000, 0xae9b03c1e753a1f1},
		"C3 ρ=1.5 m=1000 ε=0.37 L=0":                {16, 61, 1000000, 3, 0x40dee1b1b3d78c79, 0x41c91985fe977ffa},
		"C3 ρ=1.5 m=1000 ε=0.37 L=1000.5":           {1, 1959, 1959, 3, 0x408f440000000000, 0xecd898ba4acb4866},
		"C3 ρ=1.5 m=123457 ε=0 L=0":                 {27, 848, 1000000, 3, 0x4184af3727f16314, 0x56e84bf686b38622},
		"C3 ρ=1.5 m=123457 ε=0 L=1.00000025e+06":    {1, 36807, 36807, 3, 0x412e848080000000, 0x26cbaf52af0c9016},
		"C3 ρ=1.5 m=123457 ε=0.37 L=0":              {27, 61, 1000000, 3, 0x4184af3727f16314, 0x86b5bee24cc9b7bc},
		"C3 ρ=1.5 m=123457 ε=0.37 L=1000.5":         {1, 1000000, 1000000, 3, 0x408f440000000000, 0x64909d7f6c5eb41a},
		"C4 ρ=2 m=1000 ε=0 L=0":                     {21, 1199, 1000000, 2, 0x412e848000000000, 0xd5239fa1473be466},
		"C4 ρ=2 m=1000 ε=0 L=1.00000025e+06":        {1, 1199, 1199, 2, 0x412e848080000000, 0x5ca6347f589f75dd},
		"C4 ρ=2 m=1000 ε=0.37 L=0":                  {21, 87, 1000000, 2, 0x412e848000000000, 0x5b4fa7ba3c67ac9b},
		"C4 ρ=2 m=1000 ε=0.37 L=1000.5":             {1, 87611, 87611, 2, 0x408f440000000000, 0x1feb35fd7bd060b9},
		"C4 ρ=2 m=123457 ε=0 L=0":                   {35, 1199, 1000000, 2, 0x420c63c6a4080000, 0x59a9fd99ab9b67e1},
		"C4 ρ=2 m=123457 ε=0 L=1.00000025e+06":      {1, 1000000, 1000000, 2, 0x412e848080000000, 0xb944a5dbd793fb20},
		"C4 ρ=2 m=123457 ε=0.37 L=0":                {35, 87, 1000000, 2, 0x420c63c6a4080000, 0xba706e1b651a15cc},
		"C4 ρ=2 m=123457 ε=0.37 L=1000.5":           {1, 1000000, 1000000, 2, 0x408f440000000000, 0xef940a9df99606a7},
		"C7 capped at 5000":                         {61, 5000, 5000, 3, 0x43a259cebbc3371c, 0xdfba8a4afa554e59},
		"C7 ρ=3.5 m=1000 ε=0 L=0":                   {36, 3394, 1000000, 3, 0x421d73751c66bc33, 0x9d997ec5a2b12666},
		"C7 ρ=3.5 m=1000 ε=0 L=1.00000025e+06":      {1, 1000000, 1000000, 3, 0x412e848080000000, 0x7f89445938ac66b6},
		"C7 ρ=3.5 m=1000 ε=0.37 L=0":                {36, 247, 1000000, 3, 0x421d73751c66bc33, 0x3135819e0afc5174},
		"C7 ρ=3.5 m=1000 ε=0.37 L=1000.5":           {1, 1000000, 1000000, 3, 0x408f440000000000, 0x4b2c031c7da4d891},
		"C7 ρ=3.5 m=123457 ε=0 L=0":                 {61, 3394, 1000000, 3, 0x43a259cebbc3371c, 0xf65e26f36c0829a1},
		"C7 ρ=3.5 m=123457 ε=0 L=1.00000025e+06":    {1, 1000000, 1000000, 3, 0x412e848080000000, 0xf17fd49d6195f4a9},
		"C7 ρ=3.5 m=123457 ε=0.37 L=0":              {61, 247, 1000000, 3, 0x43a259cebbc3371c, 0xa86bfb17246d1c43},
		"C7 ρ=3.5 m=123457 ε=0.37 L=1000.5":         {1, 1000000, 1000000, 3, 0x408f440000000000, 0x64909d7f6c5eb41a},
		"K3 m=0 search":                             {1, 0, 0, 15, 0x3fe0000000000000, 0x3ed35302ba62d867},
		"K3 m=123457 search":                        {27, 0, 0, 15, 0x4184af3727f16314, 0x10694df7578ab0d0},
		"K4 m=0 search":                             {1, 0, 0, 20, 0x3fe0000000000000, 0xbf16dbdfa729e930},
		"K4 m=123457 search":                        {35, 0, 0, 20, 0x420c63c6a4080000, 0x481d1b59692be302},
		"house ρ=2.5 m=1000 ε=0 L=0":                {26, 1697, 1000000, 3, 0x417e286789a07f2e, 0x14e3d52061390ff8},
		"house ρ=2.5 m=1000 ε=0 L=1.00000025e+06":   {1, 53665, 53665, 3, 0x412e848080000000, 0xa5bc59c114819815},
		"house ρ=2.5 m=1000 ε=0.37 L=0":             {26, 123, 1000000, 3, 0x417e286789a07f2e, 0x2129a9999eba78d2},
		"house ρ=2.5 m=1000 ε=0.37 L=1000.5":        {1, 1000000, 1000000, 3, 0x408f440000000000, 0x4b2c031c7da4d891},
		"house ρ=2.5 m=123457 ε=0 L=0":              {44, 1697, 1000000, 3, 0x42937b932b1ad06b, 0x22a74657f4ba4de3},
		"house ρ=2.5 m=123457 ε=0 L=1.00000025e+06": {1, 1000000, 1000000, 3, 0x412e848080000000, 0xf17fd49d6195f4a9},
		"house ρ=2.5 m=123457 ε=0.37 L=0":           {44, 123, 1000000, 3, 0x42937b932b1ad06b, 0xf34878b32bf72d29},
		"house ρ=2.5 m=123457 ε=0.37 L=1000.5":      {1, 1000000, 1000000, 3, 0x408f440000000000, 0x64909d7f6c5eb41a},
	}
	got := map[string]pin{}
	record := func(name string, p Plan) {
		got[name] = pin{
			rungs: len(p.Rungs), first: p.Rungs[0].Trials, last: p.Rungs[len(p.Rungs)-1].Trials,
			passes: p.PassBound, firstL: math.Float64bits(p.Rungs[0].L), digest: planDigest(p),
		}
	}
	for _, pat := range pats {
		for _, m := range []int64{1000, 123457} {
			for _, c := range []struct{ eps, l float64 }{{0, 1e6 + 0.25}, {0.37, 1000.5}, {0.37, 0}, {0, 0}} {
				j := Job{Kind: JobEstimate, Config: Config{Pattern: pat, Epsilon: c.eps, LowerBound: c.l}}
				if c.l == 0 {
					j.Kind = JobAuto
				}
				p, err := NewPlan(j, m, true)
				if err != nil {
					t.Fatal(err)
				}
				record(fmt.Sprintf("%s ρ=%g m=%d ε=%g L=%g", pat.Name(), pat.Rho(), m, c.eps, c.l), p)
			}
		}
	}
	capped, err := NewPlan(Job{Kind: JobAuto, Config: Config{Pattern: pattern.CycleGraph(7), Epsilon: 0.05, MaxTrials: 5000}}, 123457, false)
	if err != nil {
		t.Fatal(err)
	}
	record("C7 capped at 5000", capped)
	for _, r := range []int{3, 4} {
		for _, m := range []int64{0, 123457} {
			p, err := NewPlan(Job{Kind: JobCliques, Clique: CliqueConfig{R: r, Lambda: 4, Epsilon: 0.3}}, m, true)
			if err != nil {
				t.Fatal(err)
			}
			record(fmt.Sprintf("K%d m=%d search", r, m), p)
		}
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("unpinned case %q: {%d, %d, %d, %d, %#x, %#x}", name, g.rungs, g.first, g.last, g.passes, g.firstL, g.digest)
			continue
		}
		if g != w {
			t.Errorf("%s: plan %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, %d pins", len(got), len(want))
	}
}

// TestPlanMatchesMeasured holds the plan to what the runs measure: on every
// catalog pattern over an insertion-only and a turnstile stream the
// reported trials are the plan's and one FGP run takes exactly the plan's
// pass bound; one ERS run at r = 3, 4 stays within 5r; and a search takes
// at most the bound times the guesses it ran, with every guess replayed
// standalone.
func TestPlanMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.ErdosRenyiGNM(rng, 14, 70)
	ins := stream.FromGraph(g)
	streams := map[string]stream.Stream{"insertion": ins, "turnstile": stream.WithDeletions(g, 0.25, rng)}
	names := []string{"triangle", "C4", "C5", "K4", "S2", "P4", "paw", "diamond", "butterfly", "bull", "house", "K2,3"}
	for model, st := range streams {
		for _, name := range names {
			pat, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// L puts the derived budget near 300 trials on every pattern.
			l := math.Pow(float64(2*g.M()), pat.Rho()) * 3 / (0.25 * 300)
			j := Job{Kind: JobEstimate, Config: Config{Pattern: pat, Epsilon: 0.5, LowerBound: l, Seed: 3}}
			p, err := NewPlan(j, st.Len(), st.InsertOnly())
			if err != nil {
				t.Fatal(err)
			}
			est, err := runCount(st, j)
			if err != nil {
				t.Fatalf("%s %s: %v", model, name, err)
			}
			if est.Trials != p.Rungs[0].Trials || est.Passes != p.PassBound {
				t.Errorf("%s %s: ran %d trials in %d passes, plan %d trials in %d", model, name, est.Trials, est.Passes, p.Rungs[0].Trials, p.PassBound)
			}
		}
	}

	cl := gen.PlantCliques(rng, gen.ErdosRenyiGNM(rng, 40, 60), 4, 4)
	cst := stream.FromGraph(cl)
	for _, r := range []int{3, 4} {
		j := Job{Kind: JobCliques, Clique: CliqueConfig{R: r, Lambda: 3, Epsilon: 0.5, LowerBound: 4, Seed: 7}}
		p, err := NewPlan(j, cst.Len(), true)
		if err != nil {
			t.Fatal(err)
		}
		est, err := runCount(cst, j)
		if err != nil {
			t.Fatal(err)
		}
		if est.Passes < 1 || est.Passes > p.PassBound {
			t.Errorf("K%d at L=4: %d passes, plan bound %d", r, est.Passes, p.PassBound)
		}
		j.Clique.LowerBound = 0
		assertSearchWithinPlan(t, cst, j)
	}
	assertSearchWithinPlan(t, ins, Job{Kind: JobAuto, Config: Config{Pattern: pattern.Triangle(), Epsilon: 0.3, Seed: 9}})
}

// assertSearchWithinPlan runs the search job j over st, then replays its
// rungs as standalone single-L jobs up to the first accepted one: the
// search must report their summed passes, at most the plan's bound per
// guess run.
func assertSearchWithinPlan(t *testing.T, st stream.Stream, j Job) {
	t.Helper()
	p, err := NewPlan(j, st.Len(), st.InsertOnly())
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCount(st, j)
	if err != nil {
		t.Fatal(err)
	}
	one := j
	if one.Kind == JobAuto {
		one.Kind = JobEstimate
	}
	var passes int64
	guesses := 0
	for _, r := range p.Rungs {
		one.Config.LowerBound, one.Clique.LowerBound = r.L, r.L
		est, err := runCount(st, one)
		if err != nil {
			t.Fatal(err)
		}
		guesses++
		passes += est.Passes
		if est.Value >= r.L {
			break
		}
	}
	if got.Passes != passes || got.Passes > p.PassBound*int64(guesses) {
		t.Errorf("%s search: %d passes over %d guesses; standalone sum %d, plan bound %d per guess", j.Kind, got.Passes, guesses, passes, p.PassBound)
	}
}

// TestPlanRejectsNegativeEdgeBound: a negative edge bound is a bad
// configuration for every FGP job kind, whatever fixes the trials.
func TestPlanRejectsNegativeEdgeBound(t *testing.T) {
	for _, k := range []JobKind{JobEstimate, JobSample, JobAuto, JobDistinguish} {
		j := Job{Kind: k, Threshold: 1, Config: Config{Pattern: pattern.Triangle(), Trials: 10, EdgeBound: -1}}
		if _, err := NewPlan(j, 100, true); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v, want ErrBadConfig", k, err)
		}
	}
}
