package fgp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pattern"
)

// roundRecorder is an oracle.Runner over oracle.Direct that keeps every
// round's queries and answers, so a test can hold the sampler to a query
// budget derived from the graph alone.
type roundRecorder struct {
	*oracle.Direct
	queries [][]oracle.Query
	answers [][]oracle.Answer
}

func (r *roundRecorder) Round(qs []oracle.Query) ([]oracle.Answer, error) {
	as, err := r.Direct.Round(qs)
	r.queries = append(r.queries, slices.Clone(qs))
	r.answers = append(r.answers, slices.Clone(as))
	return as, err
}

func countType(qs []oracle.Query, ty oracle.Type) int {
	n := 0
	for _, q := range qs {
		if q.Type == ty {
			n++
		}
	}
	return n
}

// budgetStats says which of Algorithm 1's cases a triangle run went through.
type budgetStats struct {
	killed   int // low-degree u₁, neighbour draw failed: over after round 2
	low      int // low-degree u₁, neighbour drawn
	boundary int // of low: deg(u₁) = S exactly
	high     int // deg(u₁) > S
}

// checkTriangleBudget runs the triangle count on g and checks every round
// against what Algorithm 1 reads, recomputed here from the graph and the
// round-1 / round-2 answers — not from the sampler's own state:
//
//	round 2: Neighbor(u₁, j) and Degree(u₁) for every trial (a triangle
//	         trial cannot fail precheck on a graph with an edge);
//	round 3: nothing from a trial with deg(u₁) ≤ S whose draw failed; from
//	         any other, with V = path ∪ {neighbour} (deg(u₁) ≤ S) or
//	         path ∪ spare edge (deg(u₁) > S), Degree of V ∖ {u₁} and then
//	         Adjacent of every pair of V — and of nothing else.
func checkTriangleBudget(t *testing.T, g *graph.Graph, trials int, seed int64) budgetStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rec := &roundRecorder{Direct: oracle.NewDirect(g, oracle.Augmented, rng)}
	if _, err := CountParallel(rec, mustPlan(t, pattern.Triangle()), trials, rng, 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.queries) != 3 {
		t.Fatalf("%d rounds, want 3", len(rec.queries))
	}
	s := int64(math.Ceil(math.Sqrt(float64(2 * g.M()))))
	a1, q2, q3 := rec.answers[0], rec.queries[1], rec.queries[2]
	if len(q2) != 2*trials {
		t.Fatalf("round 2 asks %d queries, want 2 × %d live trials", len(q2), trials)
	}
	var st budgetStats
	pos := 0
	for ti := 0; ti < trials; ti++ {
		spare, path := a1[1+2*ti].Edge, a1[2+2*ti].Edge
		nq, dq := q2[2*ti], q2[2*ti+1]
		u1 := nq.U
		if nq.Type != oracle.Neighbor || dq.Type != oracle.Degree || dq.U != u1 || (u1 != path.U && u1 != path.V) {
			t.Fatalf("trial %d: round 2 asks %v, %v; want Neighbor and Degree of an endpoint of %v", ti, nq, dq, path)
		}
		deg := g.Degree(u1)
		verts := []int64{path.U, path.V}
		switch {
		case deg <= s && nq.I > deg:
			st.killed++
			continue
		case deg <= s:
			st.low++
			if deg == s {
				st.boundary++
			}
			verts = append(verts, g.Neighbor(u1, nq.I-1))
		default:
			st.high++
			verts = append(verts, spare.U, spare.V)
		}
		slices.Sort(verts)
		verts = slices.Compact(verts)
		nDeg, nAdj := len(verts)-1, len(verts)*(len(verts)-1)/2
		if pos+nDeg+nAdj > len(q3) {
			t.Fatalf("trial %d: round 3 ends after %d queries, trial needs %d more", ti, len(q3)-pos, nDeg+nAdj)
		}
		seg := q3[pos : pos+nDeg+nAdj]
		pos += len(seg)
		in := func(v int64) bool { _, ok := slices.BinarySearch(verts, v); return ok }
		for i, q := range seg {
			switch {
			case i < nDeg && (q.Type != oracle.Degree || q.U == u1 || !in(q.U)):
				t.Fatalf("trial %d (deg(u₁=%d) = %d, S = %d): round-3 query %d is %v, want Degree of one of %v except u₁", ti, u1, deg, s, i, q, verts)
			case i >= nDeg && (q.Type != oracle.Adjacent || q.U == q.V || !in(q.U) || !in(q.V)):
				t.Fatalf("trial %d (deg(u₁=%d) = %d, S = %d): round-3 query %d is %v, want Adjacent of a pair of %v", ti, u1, deg, s, i, q, verts)
			}
		}
	}
	if pos != len(q3) {
		t.Fatalf("round 3 asks %d queries (%d Degree, %d Adjacent), the surviving trials account for %d",
			len(q3), countType(q3, oracle.Degree), countType(q3, oracle.Adjacent), pos)
	}
	return st
}

// TestQueryBudgetLowDegree: on a graph with every degree below S a triangle
// trial holds at most three vertices — the spare edge is never read — and a
// trial whose neighbour index exceeds deg(u₁) is over after round 2.
func TestQueryBudgetLowDegree(t *testing.T) {
	g := gen.ErdosRenyiGNM(rand.New(rand.NewSource(5)), 60, 300)
	if s := int64(math.Ceil(math.Sqrt(float64(2 * g.M())))); g.MaxDegree() >= s {
		t.Fatalf("precondition: max degree %d reaches S = %d", g.MaxDegree(), s)
	}
	st := checkTriangleBudget(t, g, 5000, 41)
	if st.high != 0 || st.low == 0 || st.killed == 0 {
		t.Fatalf("cases %+v: want low and killed trials and no high-degree one", st)
	}
}

// TestQueryBudgetBothBranches: with u₁ above S the trial reads the spare edge
// and not the neighbour; with deg(u₁) = S exactly it is still the low branch.
func TestQueryBudgetBothBranches(t *testing.T) {
	st := checkTriangleBudget(t, boundaryGraph(t), 5000, 42)
	if st.high == 0 || st.boundary == 0 || st.low == st.boundary || st.killed == 0 {
		t.Fatalf("cases %+v: want high, boundary, plain low and killed trials", st)
	}
}
