package pattern

import "testing"

func TestExtendedCatalogRho(t *testing.T) {
	cases := []struct {
		p         *Pattern
		rhoHalves int
	}{
		{Butterfly(), 5}, // C3 + S1
		{Bull(), 6},      // S2 + S1 (the triangle is unusable: pendants would strand)
		{House(), 5},     // spanning C5
		{Paw(), 4},       // S1 + S1
		{CompleteBipartite(2, 3), 6},
		{CompleteBipartite(2, 2), 4}, // C4
		{CompleteBipartite(1, 4), 8}, // S4
	}
	for _, c := range cases {
		if got := c.p.RhoHalves(); got != c.rhoHalves {
			t.Errorf("%s: 2ρ=%d, want %d", c.p.Name(), got, c.rhoHalves)
		}
	}
}

func TestExtendedCatalogMatchesLP(t *testing.T) {
	for _, p := range []*Pattern{Butterfly(), Bull(), House(), Paw(), CompleteBipartite(2, 3)} {
		if p.M() > 12 {
			continue
		}
		lp := FractionalEdgeCoverBruteForce(p)
		if got := p.RhoHalves(); got != lp {
			t.Errorf("%s: decomposition 2ρ=%d, LP optimum=%d (Lemma 4 violated)", p.Name(), got, lp)
		}
	}
}

func TestExtendedDecompositionProfiles(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want []string // any optimal profile is acceptable
	}{
		{Butterfly(), []string{"C3+S1"}},
		{Bull(), []string{"S2+S1"}},
		// The house has two optimal decompositions at ρ = 5/2: its spanning
		// 5-cycle, or the roof triangle plus one wall edge.
		{House(), []string{"C5", "C3+S1"}},
	}
	for _, c := range cases {
		d, err := Decompose(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p.Name(), err)
		}
		ok := false
		for _, w := range c.want {
			if d.String() == w {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: decomposition %s, want one of %v", c.p.Name(), d, c.want)
		}
	}
}

func TestExtendedCatalogByName(t *testing.T) {
	for _, name := range []string{"butterfly", "bull", "house", "paw", "K2,3", "K3,3"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q) returned %q", name, p.Name())
		}
	}
	for _, name := range []string{"K0,3", "K9,9"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q): want error", name)
		}
	}
}

func TestExtendedDecompositionCounts(t *testing.T) {
	// All extended patterns must have at least one decomposition tuple and
	// a positive multiplicity bound (needed by the samplers).
	for _, p := range []*Pattern{Butterfly(), Bull(), House(), Paw(), CompleteBipartite(2, 3)} {
		d, err := Decompose(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if f := DecompositionCount(p, d); f < 1 {
			t.Errorf("f_T(%s)=%d", p.Name(), f)
		}
		if c := MaxCopiesPerTuple(p, d); c < 1 {
			t.Errorf("c_max(%s)=%d", p.Name(), c)
		}
	}
}
