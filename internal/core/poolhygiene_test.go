package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/pattern"
	"streamcount/internal/pool"
	"streamcount/internal/stream"
)

// poolHygieneFingerprint runs a workload that touches every pool in the
// pass engine — the FGP trial arena, the insertion and turnstile runner
// pools (reservoir banks, ℓ0 freelists, shard key tables and watch runs,
// batch buffers), the feed scratch pool and, through an ERS clique count,
// transform.Run's round buffers — and folds every numeric output into one bit
// vector. Each scenario runs twice back to back: the second run is served
// from scratch the first run released, so under DebugDirty it consumes
// buffers that were sentinel-smeared between rounds.
func poolHygieneFingerprint(t *testing.T) (fp []uint64, labels []string) {
	t.Helper()
	add := func(label string, v uint64) {
		fp = append(fp, v)
		labels = append(labels, label)
	}

	g := gen.ErdosRenyiGNM(rand.New(rand.NewSource(11)), 30, 150)
	ins := stream.FromGraph(g)
	turn := stream.WithDeletions(g, 0.4, rand.New(rand.NewSource(12)))
	if turn.InsertOnly() {
		t.Fatal("precondition: turnstile stream")
	}
	// A turnstile round flushes its sampler feeds every 4·DefaultBatchSize
	// updates: over this stream the samplers take a mid-pass UpdateFeed and
	// then answer from the last block through SampleFeed.
	long := stream.WithDeletions(gen.ErdosRenyiGNM(rand.New(rand.NewSource(13)), 400, 10000), 0.4, rand.New(rand.NewSource(14)))
	if len(long.Updates()) <= 4*stream.DefaultBatchSize {
		t.Fatalf("precondition: %d updates fit one feed block", len(long.Updates()))
	}

	scenarios := []struct {
		name string
		p    *pattern.Pattern
		st   stream.Stream
		par  int
		tr   int
	}{
		// Triangle: cycle-only decomposition, sharded 3 ways.
		{"triangle/insertion", pattern.Triangle(), ins, 3, 2000},
		// Paw: mixed cycle+star decomposition, so the star-petal and
		// tuple scratch is exercised too.
		{"paw/insertion", pattern.Paw(), ins, 2, 2000},
		// Turnstile: ℓ0 samplers, the sampler freelist, feed scratch.
		{"triangle/turnstile", pattern.Triangle(), turn, 3, 600},
		// Turnstile over several feed blocks: the recycled samplers take
		// mid-pass flushes before the fused last one.
		{"triangle/turnstile-blocks", pattern.Triangle(), long, 2, 300},
	}
	for run := 0; run < 2; run++ {
		for _, sc := range scenarios {
			est, err := runCount(sc.st, Job{Kind: JobEstimate, Config: Config{
				Pattern:     sc.p,
				Trials:      sc.tr,
				Seed:        9,
				Parallelism: sc.par,
			}})
			if err != nil {
				t.Fatalf("run %d %s: %v", run, sc.name, err)
			}
			pre := fmt.Sprintf("run%d/%s/", run, sc.name)
			add(pre+"value", math.Float64bits(est.Value))
			add(pre+"m", uint64(est.M))
			add(pre+"passes", uint64(est.Passes))
			add(pre+"queries", uint64(est.Queries))
			add(pre+"space", uint64(est.SpaceWords))
		}
		r, err := runJob(ins, Job{Kind: JobSample, Config: Config{
			Pattern:     pattern.Triangle(),
			Trials:      400,
			Seed:        13,
			Parallelism: 2,
		}})
		if err != nil {
			t.Fatalf("run %d sample: %v", run, err)
		}
		cl, err := runCount(ins, Job{Kind: JobCliques, Clique: CliqueConfig{R: 3, Lambda: 8, Epsilon: 0.5, LowerBound: 20, Seed: 17}})
		if err != nil {
			t.Fatalf("run %d cliques: %v", run, err)
		}
		pre := fmt.Sprintf("run%d/cliques/", run)
		add(pre+"value", math.Float64bits(cl.Value))
		add(pre+"passes", uint64(cl.Passes))
		add(pre+"queries", uint64(cl.Queries))
		add(pre+"space", uint64(cl.SpaceWords))
		pre = fmt.Sprintf("run%d/sample/", run)
		if !r.Found {
			add(pre+"found", 0)
		} else {
			add(pre+"found", 1)
			for i, e := range r.Copy.Edges {
				add(fmt.Sprintf("%sedge%d", pre, i), uint64(e.U)<<32|uint64(e.V))
			}
			for i, v := range r.Copy.Vertices {
				add(fmt.Sprintf("%svert%d", pre, i), uint64(v))
			}
		}
	}
	return fp, labels
}

// TestPoolHygieneDirtyMatchesFresh is the reset ≡ fresh proof obligation
// from DESIGN.md §12, run in anger: the same workload under
//
//   - DebugDisable — every Get allocates fresh: the ground truth;
//   - DebugDirty   — every recycled value is smeared with sentinel bytes
//     before its reset runs, so a reset that misses a field feeds the
//     estimator garbage instead of coincidentally-zero memory;
//   - DebugOff     — normal pooled operation;
//
// must produce bit-identical estimates, accounting and sampled copies.
// A failure names the first diverging output, which pins the leaky pool.
func TestPoolHygieneDirtyMatchesFresh(t *testing.T) {
	prev := pool.DebugMode()
	defer pool.SetDebug(prev)

	pool.SetDebug(pool.DebugDisable)
	fresh, labels := poolHygieneFingerprint(t)

	for mode, name := range map[int32]string{
		pool.DebugDirty: "dirty",
		pool.DebugOff:   "pooled",
	} {
		pool.SetDebug(mode)
		got, _ := poolHygieneFingerprint(t)
		if len(got) != len(fresh) {
			t.Fatalf("%s: %d outputs, fresh produced %d", name, len(got), len(fresh))
		}
		for i := range fresh {
			if got[i] != fresh[i] {
				t.Errorf("%s diverges from fresh at %s: %#x != %#x",
					name, labels[i], got[i], fresh[i])
				break
			}
		}
	}
}
