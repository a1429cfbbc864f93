package gen

import (
	"math/rand"
	"testing"

	"streamcount/internal/graph"
)

func TestErdosRenyiGNM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyiGNM(rng, 50, 300)
	if g.N() != 50 || g.M() != 300 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestErdosRenyiGNMPanicsOnTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m > n(n-1)/2")
		}
	}()
	ErdosRenyiGNM(rand.New(rand.NewSource(1)), 3, 10)
}

func TestErdosRenyiGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyiGNP(rng, 100, 0.1)
	want := 0.1 * float64(100*99/2)
	if f := float64(g.M()); f < want*0.7 || f > want*1.3 {
		t.Errorf("m=%d, want ~%.0f", g.M(), want)
	}
	if ErdosRenyiGNP(rng, 50, 0).M() != 0 {
		t.Error("p=0 should give empty graph")
	}
	if ErdosRenyiGNP(rng, 10, 1).M() != 45 {
		t.Error("p=1 should give complete graph")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := BarabasiAlbert(rng, 300, 3)
	if g.N() != 300 {
		t.Errorf("n=%d", g.N())
	}
	// Every non-seed vertex attaches k edges: m = C(k+1,2) + (n-k-1)*k.
	want := int64(6 + (300-4)*3)
	if g.M() != want {
		t.Errorf("m=%d, want %d", g.M(), want)
	}
	lambda, _ := graph.Degeneracy(g)
	if lambda != 3 {
		t.Errorf("degeneracy=%d, want 3", lambda)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestChungLuDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ChungLu(rng, 200, 2.5, 6)
	avg := 2 * float64(g.M()) / float64(g.N())
	if avg < 3 || avg > 10 {
		t.Errorf("avg degree %.1f, want ~6", avg)
	}
	// Power law: the max degree should be well above the average.
	if float64(g.MaxDegree()) < 2*avg {
		t.Errorf("max degree %d not heavy-tailed (avg %.1f)", g.MaxDegree(), avg)
	}
}

func TestGridProperties(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Errorf("n=%d", g.N())
	}
	// Edges: rows*(cols-1) + (rows-1)*cols.
	if g.M() != 4*4+3*5 {
		t.Errorf("m=%d", g.M())
	}
	lambda, _ := graph.Degeneracy(g)
	if lambda != 2 {
		t.Errorf("grid degeneracy=%d, want 2", lambda)
	}
}

func TestCycleAndComplete(t *testing.T) {
	if g := Cycle(7); g.M() != 7 || g.MaxDegree() != 2 {
		t.Errorf("C7: m=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
	if g := Complete(6); g.M() != 15 || g.MaxDegree() != 5 {
		t.Errorf("K6: m=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
}

func TestPlantCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(40)
	PlantCliques(rng, g, 4, 3)
	if g.M() != 3*6 {
		t.Errorf("m=%d, want 18 (three disjoint K4s)", g.M())
	}
	// Disjointness: every vertex has degree 0 or 3.
	for v := int64(0); v < g.N(); v++ {
		if d := g.Degree(v); d != 0 && d != 3 {
			t.Errorf("vertex %d degree %d", v, d)
		}
	}
}

func TestPlantCyclesDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.New(30)
	PlantCycles(rng, g, 5, 4)
	if g.M() != 20 {
		t.Errorf("m=%d, want 20", g.M())
	}
	for v := int64(0); v < g.N(); v++ {
		if d := g.Degree(v); d != 0 && d != 2 {
			t.Errorf("vertex %d degree %d", v, d)
		}
	}
}

func TestPlantPanicsWhenTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PlantCliques(rand.New(rand.NewSource(1)), graph.New(5), 4, 2)
}

func BenchmarkErdosRenyiGNM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for b.Loop() {
		ErdosRenyiGNM(rng, 2000, 100000)
	}
}
