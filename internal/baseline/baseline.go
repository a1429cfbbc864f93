// Package baseline implements the comparison algorithms used by the
// experiments: a Doulion-style one-pass edge sparsifier [Tso+09], a
// TRIEST-style one-pass reservoir triangle estimator, and the
// store-everything exact streaming counter. They anchor the error-vs-space
// frontier the paper's Section 1 comparison discusses.
package baseline

import (
	"fmt"
	"math/rand"

	"streamcount/internal/exact"
	"streamcount/internal/graph"
	"streamcount/internal/pattern"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

// Result is a baseline estimate with space accounting.
type Result struct {
	// Estimate is the estimated #H.
	Estimate float64
	// SpaceWords approximates the words of state retained.
	SpaceWords int64
	// Passes is the number of passes used.
	Passes int64
}

// Doulion estimates #H in one pass by keeping each edge independently with
// probability keep (decided by a hash of the edge, so deletions of kept
// edges are handled in turnstile streams), counting H exactly on the
// sparsified graph and scaling by keep^{-|E(H)|}.
func Doulion(st stream.Stream, p *pattern.Pattern, keep float64, seed uint64) (*Result, error) {
	if keep <= 0 || keep > 1 {
		return nil, fmt.Errorf("baseline: keep probability %g outside (0,1]", keep)
	}
	// Keep edge iff hash/2^64 < keep; float comparison avoids the uint64
	// overflow at keep = 1.
	const two64 = 18446744073709551616.0
	g := graph.New(st.N())
	err := st.ForEachBatch(func(batch []stream.Update) error {
		for _, u := range batch {
			e := u.Edge.Canon()
			key := uint64(e.U)*uint64(st.N()) + uint64(e.V)
			if float64(sketch.Hash64(seed, key)) >= keep*two64 {
				continue
			}
			switch u.Op {
			case stream.Insert:
				g.AddEdge(e.U, e.V)
			case stream.Delete:
				g.RemoveEdge(e.U, e.V)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scale := 1.0
	for i := 0; i < p.M(); i++ {
		scale /= keep
	}
	return &Result{
		Estimate:   float64(exact.Count(g, p)) * scale,
		SpaceWords: 2 * g.M(),
		Passes:     1,
	}, nil
}

// Triest estimates the number of triangles in one pass over an
// insertion-only stream with a fixed-size edge reservoir (TRIEST-base):
// when the t-th edge (u,v) arrives, every triangle it closes inside the
// reservoir contributes max(1, (t-1)(t-2)/(M(M-1))) to the estimate.
func Triest(st stream.Stream, reservoir int, rng *rand.Rand) (*Result, error) {
	if !st.InsertOnly() {
		return nil, fmt.Errorf("baseline: TRIEST-base requires an insertion-only stream")
	}
	if reservoir < 3 {
		return nil, fmt.Errorf("baseline: reservoir size %d < 3", reservoir)
	}
	type edge = graph.Edge
	sample := make(map[edge]struct{}, reservoir)
	adj := make(map[int64]map[int64]struct{})
	addAdj := func(u, v int64) {
		if adj[u] == nil {
			adj[u] = make(map[int64]struct{})
		}
		adj[u][v] = struct{}{}
	}
	delAdj := func(u, v int64) {
		delete(adj[u], v)
		if len(adj[u]) == 0 {
			delete(adj, u)
		}
	}
	var estimate float64
	var t int64
	err := st.ForEachBatch(func(batch []stream.Update) error {
		for _, u := range batch {
			if u.Op != stream.Insert {
				return fmt.Errorf("baseline: deletion in insertion-only stream")
			}
			t++
			e := u.Edge.Canon()
			// Count triangles closed by e within the current sample.
			var closed int64
			small, large := e.U, e.V
			if len(adj[small]) > len(adj[large]) {
				small, large = large, small
			}
			for w := range adj[small] {
				if _, ok := adj[large][w]; ok {
					closed++
				}
			}
			if closed > 0 {
				eta := 1.0
				if t > int64(reservoir) {
					num := float64(t-1) * float64(t-2)
					den := float64(reservoir) * float64(reservoir-1)
					if num > den {
						eta = num / den
					}
				}
				estimate += float64(closed) * eta
			}
			// Reservoir update.
			if int64(len(sample)) < int64(reservoir) {
				sample[e] = struct{}{}
				addAdj(e.U, e.V)
				addAdj(e.V, e.U)
				continue
			}
			if rng.Int63n(t) < int64(reservoir) {
				// Evict a uniformly random edge.
				k := rng.Intn(len(sample))
				var victim edge
				for se := range sample {
					if k == 0 {
						victim = se
						break
					}
					k--
				}
				delete(sample, victim)
				delAdj(victim.U, victim.V)
				delAdj(victim.V, victim.U)
				sample[e] = struct{}{}
				addAdj(e.U, e.V)
				addAdj(e.V, e.U)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Estimate:   estimate,
		SpaceWords: int64(4 * reservoir),
		Passes:     1,
	}, nil
}

// ExactStream materializes the stream and counts #H exactly — the
// "store everything" upper baseline with Θ(m) space.
func ExactStream(st stream.Stream, p *pattern.Pattern) (*Result, error) {
	g, err := stream.Materialize(st)
	if err != nil {
		return nil, err
	}
	return &Result{
		Estimate:   float64(exact.Count(g, p)),
		SpaceWords: 2 * g.M(),
		Passes:     1,
	}, nil
}
