package transform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

func q(t oracle.Type, args ...int64) oracle.Query {
	var qq oracle.Query
	qq.Type = t
	if len(args) > 0 {
		qq.U = args[0]
	}
	if len(args) > 1 {
		qq.V = args[1]
	}
	if len(args) > 2 {
		qq.I = args[2]
	}
	return qq
}

func TestInsertionRunnerBasicQueries(t *testing.T) {
	g := gen.Complete(4) // K4: every vertex degree 3, m=6
	st := stream.FromGraph(g)
	r, err := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := r.Round([]oracle.Query{
		q(oracle.CountEdges),
		q(oracle.Degree, 0),
		q(oracle.Adjacent, 0, 1),
		q(oracle.Adjacent, 1, 0),
		q(oracle.RandomEdge),
		q(oracle.Neighbor, 2, 0, 1),
		q(oracle.Neighbor, 2, 0, 4), // index > degree: fail
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ans[0].OK || ans[0].Count != 6 {
		t.Errorf("CountEdges=%+v", ans[0])
	}
	if !ans[1].OK || ans[1].Count != 3 {
		t.Errorf("Degree(0)=%+v", ans[1])
	}
	if !ans[2].Yes || !ans[3].Yes {
		t.Errorf("Adjacent answers: %+v %+v", ans[2], ans[3])
	}
	if !ans[4].OK || !g.HasEdge(ans[4].Edge.U, ans[4].Edge.V) {
		t.Errorf("RandomEdge=%+v", ans[4])
	}
	if !ans[5].OK || !g.HasEdge(2, ans[5].Count) {
		t.Errorf("Neighbor(2,1)=%+v", ans[5])
	}
	if ans[6].OK {
		t.Errorf("Neighbor(2,4) should fail, got %+v", ans[6])
	}
	if r.Rounds() != 1 {
		t.Errorf("rounds=%d", r.Rounds())
	}
	if r.Queries() != 7 {
		t.Errorf("queries=%d", r.Queries())
	}
	if r.SpaceWords() <= 0 {
		t.Errorf("space=%d", r.SpaceWords())
	}
}

func TestInsertionRunnerRejectsRelaxedQueries(t *testing.T) {
	st := stream.FromGraph(gen.Cycle(3))
	r, _ := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
	if _, err := r.Round([]oracle.Query{q(oracle.RandomNeighbor, 0)}); err == nil {
		t.Error("RandomNeighbor should be rejected by the insertion runner")
	}
}

func TestInsertionRunnerRejectsTurnstileStream(t *testing.T) {
	g := gen.Cycle(4)
	ts := stream.WithDeletions(g, 0.5, rand.New(rand.NewSource(2)))
	if _, err := NewInsertionRunner(ts, rand.New(rand.NewSource(1))); err == nil {
		t.Error("turnstile stream should be rejected")
	}
}

func TestInsertionRandomEdgeUniform(t *testing.T) {
	g := gen.Cycle(6) // 6 edges
	st := stream.FromGraph(g)
	rng := rand.New(rand.NewSource(3))
	r, _ := NewInsertionRunner(st, rng)
	counts := make(map[graph.Edge]int)
	const trials = 6000
	qs := make([]oracle.Query, trials)
	for i := range qs {
		qs[i] = q(oracle.RandomEdge)
	}
	ans, err := r.Round(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ans {
		if !a.OK {
			t.Fatal("reservoir failed on non-empty stream")
		}
		counts[a.Edge.Canon()]++
	}
	want := float64(trials) / 6
	for e, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("edge %v sampled %d, want ~%.0f", e, c, want)
		}
	}
}

func TestNeighborMatchesStreamOrder(t *testing.T) {
	// The i-th neighbor in the insertion emulation is the i-th incident
	// edge in stream order (Theorem 9's proof); verify against the stream.
	ups := []stream.Update{
		{Edge: graph.Edge{U: 5, V: 1}, Op: stream.Insert},
		{Edge: graph.Edge{U: 2, V: 5}, Op: stream.Insert},
		{Edge: graph.Edge{U: 0, V: 3}, Op: stream.Insert},
		{Edge: graph.Edge{U: 5, V: 4}, Op: stream.Insert},
	}
	st, err := stream.NewSlice(6, ups)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
	ans, err := r.Round([]oracle.Query{
		q(oracle.Neighbor, 5, 0, 1),
		q(oracle.Neighbor, 5, 0, 2),
		q(oracle.Neighbor, 5, 0, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 4}
	for i, w := range want {
		if !ans[i].OK || ans[i].Count != w {
			t.Errorf("neighbor %d = %+v, want %d", i+1, ans[i], w)
		}
	}
}

func TestTurnstileRunnerBasicQueries(t *testing.T) {
	g := gen.Complete(4)
	rng := rand.New(rand.NewSource(5))
	ts := stream.WithDeletions(g, 1.0, rng)
	r := NewTurnstileRunner(ts, rng)
	ans, err := r.Round([]oracle.Query{
		q(oracle.CountEdges),
		q(oracle.Degree, 0),
		q(oracle.Adjacent, 0, 1),
		q(oracle.RandomEdge),
		q(oracle.RandomNeighbor, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ans[0].OK || ans[0].Count != 6 {
		t.Errorf("CountEdges=%+v, want 6", ans[0])
	}
	if ans[1].Count != 3 {
		t.Errorf("Degree(0)=%+v, want 3", ans[1])
	}
	if !ans[2].Yes {
		t.Errorf("Adjacent(0,1)=%+v", ans[2])
	}
	if !ans[3].OK || !g.HasEdge(ans[3].Edge.U, ans[3].Edge.V) {
		t.Errorf("RandomEdge=%+v: not an edge of the final graph", ans[3])
	}
	if !ans[4].OK || !g.HasEdge(2, ans[4].Count) {
		t.Errorf("RandomNeighbor(2)=%+v", ans[4])
	}
	if r.Model() != oracle.Relaxed {
		t.Errorf("model=%v", r.Model())
	}
}

func TestTurnstileRunnerDeletionsErase(t *testing.T) {
	// Insert a K4 fully, delete all edges at vertex 3: degree/adjacency and
	// samplers must reflect the final graph only.
	var ups []stream.Update
	g := gen.Complete(4)
	for _, e := range g.Edges() {
		ups = append(ups, stream.Update{Edge: e, Op: stream.Insert})
	}
	for _, e := range g.Edges() {
		if e.U == 3 || e.V == 3 {
			ups = append(ups, stream.Update{Edge: e, Op: stream.Delete})
		}
	}
	st, err := stream.NewSlice(4, ups)
	if err != nil {
		t.Fatal(err)
	}
	r := NewTurnstileRunner(st, rand.New(rand.NewSource(6)))
	ans, err := r.Round([]oracle.Query{
		q(oracle.CountEdges),
		q(oracle.Degree, 3),
		q(oracle.Adjacent, 0, 3),
		q(oracle.RandomNeighbor, 3),
		q(oracle.Adjacent, 0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans[0].Count != 3 {
		t.Errorf("m=%d, want 3", ans[0].Count)
	}
	if ans[1].Count != 0 {
		t.Errorf("deg(3)=%d, want 0", ans[1].Count)
	}
	if ans[2].Yes {
		t.Error("edge (0,3) was deleted")
	}
	if ans[3].OK {
		t.Error("RandomNeighbor(3) should fail: vertex isolated")
	}
	if !ans[4].Yes {
		t.Error("edge (0,1) should remain")
	}
}

// TestTurnstileSamplerSpaceCapped: at the largest universe the default
// geometry asks for 2⌈log₂(n+2)⌉+8 = 72 levels, but no key reaches a level
// above 64, so a sampler holds 65 and is charged 2·65·8·3+8 = 3 128 words,
// not the 3 464 of 72 levels.
func TestTurnstileSamplerSpaceCapped(t *testing.T) {
	cfg := defaultL0Config(maxTurnstileVertices)
	if cfg.Levels != 72 {
		t.Fatalf("default geometry at n = %d asks for %d levels, want 72", int64(maxTurnstileVertices), cfg.Levels)
	}
	if got := cfg.SpaceWords(); got != 3128 {
		t.Errorf("SpaceWords = %d, want 3128", got)
	}
	if got := sketch.NewL0Sampler(1, cfg).SpaceWords(); got != 3128 {
		t.Errorf("a sampler of that geometry charges %d words, want 3128", got)
	}
}

// TestTurnstileUniverseBound: an ℓ0-sampler returns no key of 2⁶³ or more, so
// the turnstile runner takes a universe up to ⌊√2⁶³⌋ vertices — whose top edge
// is still sampled, as an edge and as a neighbor — and refuses one vertex
// more, where edges would silently drop out of f1. The insertion runner, which
// builds no sampler, keeps its own 2³² limit.
func TestTurnstileUniverseBound(t *testing.T) {
	const limit = maxTurnstileVertices
	top := graph.Edge{U: limit - 2, V: limit - 1}
	qs := []oracle.Query{q(oracle.RandomEdge), q(oracle.RandomNeighbor, top.U), q(oracle.Adjacent, top.V, top.U)}
	for _, n := range []int64{limit, limit + 1} {
		st, err := stream.NewSlice(n, []stream.Update{{Edge: top, Op: stream.Insert}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewInsertionRunner(st, rand.New(rand.NewSource(1))); err != nil {
			t.Errorf("n = %d: insertion runner: %v", n, err)
		}
		ans, err := NewTurnstileRunner(st, rand.New(rand.NewSource(1))).Round(qs)
		if n > limit {
			if err == nil || !strings.Contains(err.Error(), "2^63") {
				t.Errorf("n = %d: err = %v, want one naming the 2^63 key limit", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n = %d: %v", n, err)
		}
		if want := []oracle.Answer{{OK: true, Edge: top}, {OK: true, Count: top.V}, {OK: true, Yes: true}}; !slices.Equal(ans, want) {
			t.Errorf("n = %d: answers %+v, want %+v", n, ans, want)
		}
	}
}

// TestTurnstileFeedBlockFlush: a pass of more than ten feed blocks flushes
// its sampler feeds block by block, so the edge feed never outgrows one
// block, and answers exactly what the same samplers answer when each takes
// the whole pass in one unflushed UpdateFeed call.
func TestTurnstileFeedBlockFlush(t *testing.T) {
	const n = 700
	rng := rand.New(rand.NewSource(16))
	ts := stream.WithDeletions(gen.ErdosRenyiGNM(rng, n, 150_000), 0.1, rng)
	ups := ts.Updates()
	if len(ups) < 10*feedBlock {
		t.Fatalf("stream of %d updates is under ten blocks of %d", len(ups), feedBlock)
	}
	qs := []oracle.Query{
		q(oracle.RandomEdge),
		q(oracle.RandomNeighbor, 5),
		q(oracle.CountEdges),
		q(oracle.RandomEdge),
		q(oracle.RandomNeighbor, 5),
		q(oracle.RandomNeighbor, 9),
	}
	// The unflushed path, with the seeds BeginRound draws: the fingerprint
	// base first, then one per sampler in query order.
	ref := rand.New(rand.NewSource(7))
	base := sketch.RandomFieldBase(ref.Uint64())
	want := make([]oracle.Answer, len(qs))
	for i, qu := range qs {
		var feed []sketch.FeedEntry
		for _, u := range ups {
			d := int64(1)
			if u.Op == stream.Delete {
				d = -1
			}
			switch e := u.Edge.Canon(); {
			case qu.Type == oracle.RandomEdge:
				feed = append(feed, sketch.FeedEntry{Key: edgeKey(e, n), Delta: d})
			case qu.Type == oracle.RandomNeighbor && e.U == qu.U:
				feed = append(feed, sketch.FeedEntry{Key: uint64(e.V), Delta: d})
			case qu.Type == oracle.RandomNeighbor && e.V == qu.U:
				feed = append(feed, sketch.FeedEntry{Key: uint64(e.U), Delta: d})
			}
		}
		if qu.Type == oracle.CountEdges {
			want[i] = oracle.Answer{OK: true, Count: 150_000}
			continue
		}
		s := sketch.NewL0SamplerWithBase(ref.Uint64(), base, defaultL0Config(n))
		sketch.FillFeed(base, feed)
		s.UpdateFeed(feed, new(sketch.L0Scratch))
		key, ok := s.Sample()
		if !ok {
			t.Fatalf("query %d: reference sampler failed; pick another seed", i)
		}
		if qu.Type == oracle.RandomEdge {
			want[i] = oracle.Answer{OK: true, Edge: keyEdge(key, n)}
		} else {
			want[i] = oracle.Answer{OK: true, Count: int64(key)}
		}
	}
	for _, p := range []int{1, 3} {
		r := NewTurnstileRunner(ts, rand.New(rand.NewSource(7)))
		r.SetParallelism(p)
		got, err := r.Round(qs)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, fmt.Sprintf("parallelism %d", p), want, got)
		if c := cap(r.edgeFeed); c > feedBlock {
			t.Errorf("parallelism %d: edge feed grew to %d entries, over one block of %d", p, c, feedBlock)
		}
	}
}

func TestTurnstileRejectsNeighborQuery(t *testing.T) {
	st := stream.FromGraph(gen.Cycle(3))
	r := NewTurnstileRunner(st, rand.New(rand.NewSource(1)))
	if _, err := r.Round([]oracle.Query{q(oracle.Neighbor, 0, 0, 1)}); err == nil {
		t.Error("Neighbor should be rejected by the turnstile runner")
	}
}

func TestTurnstileRandomEdgeNearUniform(t *testing.T) {
	g := gen.Cycle(5)
	st := stream.FromGraph(g)
	rng := rand.New(rand.NewSource(7))
	r := NewTurnstileRunner(st, rng)
	const trials = 2000
	qs := make([]oracle.Query, trials)
	for i := range qs {
		qs[i] = q(oracle.RandomEdge)
	}
	ans, err := r.Round(qs)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[graph.Edge]int)
	succ := 0
	for _, a := range ans {
		if a.OK {
			counts[a.Edge.Canon()]++
			succ++
		}
	}
	if succ < trials*9/10 {
		t.Fatalf("ℓ0 success rate %d/%d too low", succ, trials)
	}
	want := float64(succ) / 5
	for e, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("edge %v sampled %d, want ~%.0f", e, c, want)
		}
	}
}

// rememberTask records answers for inspection. It copies them: a round's
// answers are the runner's until its next round.
type rememberTask struct {
	batches [][]oracle.Query
	seen    [][]oracle.Answer
	step    int
}

func (r *rememberTask) Step(prev []oracle.Answer, dst []oracle.Query) ([]oracle.Query, bool) {
	if prev != nil {
		r.seen = append(r.seen, slices.Clone(prev))
	}
	if r.step >= len(r.batches) {
		return dst, true
	}
	dst = append(dst, r.batches[r.step]...)
	r.step++
	return dst, false
}

func TestRunParallelRoundCount(t *testing.T) {
	g := gen.Complete(5)
	st := stream.NewCounter(stream.FromGraph(g))
	r, _ := NewInsertionRunner(st, rand.New(rand.NewSource(8)))
	// Task A: 3 rounds; Task B: 1 round. Parallel composition: 3 passes.
	a := &rememberTask{batches: [][]oracle.Query{
		{q(oracle.CountEdges)},
		{q(oracle.Degree, 0)},
		{q(oracle.Adjacent, 0, 1)},
	}}
	b := &rememberTask{batches: [][]oracle.Query{
		{q(oracle.CountEdges)},
	}}
	rounds, err := Run(r, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Errorf("rounds=%d, want 3", rounds)
	}
	if st.Passes() != 3 {
		t.Errorf("passes=%d, want 3", st.Passes())
	}
	if len(a.seen) != 3 || len(b.seen) != 1 {
		t.Errorf("answer batches: a=%d b=%d", len(a.seen), len(b.seen))
	}
	if a.seen[0][0].Count != 10 || b.seen[0][0].Count != 10 {
		t.Errorf("m answers wrong: %+v %+v", a.seen[0][0], b.seen[0][0])
	}
	if a.seen[1][0].Count != 4 {
		t.Errorf("deg(0)=%+v, want 4", a.seen[1][0])
	}
}

func TestStagesTask(t *testing.T) {
	g := gen.Complete(4)
	r, _ := NewInsertionRunner(stream.FromGraph(g), rand.New(rand.NewSource(9)))
	var m, deg int64
	task := NewStages(
		func(prev []oracle.Answer) []oracle.Query {
			return []oracle.Query{q(oracle.CountEdges)}
		},
		func(prev []oracle.Answer) []oracle.Query {
			m = prev[0].Count
			return []oracle.Query{q(oracle.Degree, 1)}
		},
		func(prev []oracle.Answer) []oracle.Query {
			deg = prev[0].Count
			return nil
		},
	)
	rounds, err := Run(r, task)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 || m != 6 || deg != 3 {
		t.Errorf("rounds=%d m=%d deg=%d", rounds, m, deg)
	}
}

// badTask violates the executor contract in configurable ways.
type badTask struct{ mode int }

func (b *badTask) Step(prev []oracle.Answer, dst []oracle.Query) ([]oracle.Query, bool) {
	switch b.mode {
	case 0: // queries together with done=true
		return append(dst, oracle.Query{Type: oracle.CountEdges}), true
	default: // no queries but not done
		return dst, false
	}
}

func TestRunRejectsContractViolations(t *testing.T) {
	g := gen.Complete(3)
	r, _ := NewInsertionRunner(stream.FromGraph(g), rand.New(rand.NewSource(1)))
	if _, err := Run(r, &badTask{mode: 0}); err == nil {
		t.Error("queries with done=true should be rejected")
	}
	if _, err := Run(r, &badTask{mode: 1}); err == nil {
		t.Error("empty non-done batch should be rejected")
	}
}

func TestRunNoTasks(t *testing.T) {
	g := gen.Complete(3)
	r, _ := NewInsertionRunner(stream.FromGraph(g), rand.New(rand.NewSource(1)))
	rounds, err := Run(r)
	if err != nil || rounds != 0 {
		t.Errorf("empty run: rounds=%d err=%v", rounds, err)
	}
}

func TestDirectOracleAgreesWithRunners(t *testing.T) {
	g := gen.Complete(5)
	rng := rand.New(rand.NewSource(10))
	d := oracle.NewDirect(g, oracle.Augmented, rng)
	ir, _ := NewInsertionRunner(stream.FromGraph(g), rng)
	queries := []oracle.Query{
		q(oracle.CountEdges),
		q(oracle.Degree, 2),
		q(oracle.Adjacent, 0, 4),
	}
	da, err := d.Round(queries)
	if err != nil {
		t.Fatal(err)
	}
	ia, err := ir.Round(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if da[i].Count != ia[i].Count || da[i].Yes != ia[i].Yes {
			t.Errorf("query %d: direct %+v vs insertion %+v", i, da[i], ia[i])
		}
	}
}

// TestRoundLifecycleEquivalence is the PassRunner contract: a round served
// by an external scheduler (BeginRound + broadcast replay + EndRound) must
// answer bit-identically to a self-replaying Round call, on both runners.
// Two runners share one broadcast pass here, mimicking a session.
func TestRoundLifecycleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.ErdosRenyiGNM(rng, 40, 200)

	queries := []oracle.Query{
		q(oracle.CountEdges),
		q(oracle.RandomEdge),
		q(oracle.RandomEdge),
		q(oracle.Degree, 3),
		q(oracle.Adjacent, 0, 1),
	}
	insQueries := append(append([]oracle.Query(nil), queries...), q(oracle.Neighbor, 2, 0, 1))
	turnQueries := append(append([]oracle.Query(nil), queries...), q(oracle.RandomNeighbor, 2))

	t.Run("insertion", func(t *testing.T) {
		st := stream.FromGraph(g)
		standalone, err := NewInsertionRunner(st, rand.New(rand.NewSource(33)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := standalone.Round(insQueries)
		if err != nil {
			t.Fatal(err)
		}

		r1, _ := NewInsertionRunner(st, rand.New(rand.NewSource(33)))
		r2, _ := NewInsertionRunner(st, rand.New(rand.NewSource(77)))
		if err := r1.BeginRound(insQueries); err != nil {
			t.Fatal(err)
		}
		if err := r2.BeginRound(insQueries); err != nil {
			t.Fatal(err)
		}
		bc := stream.NewBroadcaster(st)
		if err := bc.Replay(context.Background(), r1, r2); err != nil {
			t.Fatal(err)
		}
		got, err := r1.EndRound()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r2.EndRound(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d answers, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("answer %d: scheduled %+v != standalone %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("turnstile", func(t *testing.T) {
		st := stream.WithDeletions(g, 0.5, rng)
		standalone := NewTurnstileRunner(st, rand.New(rand.NewSource(34)))
		want, err := standalone.Round(turnQueries)
		if err != nil {
			t.Fatal(err)
		}

		r1 := NewTurnstileRunner(st, rand.New(rand.NewSource(34)))
		r2 := NewTurnstileRunner(st, rand.New(rand.NewSource(78)))
		if err := r1.BeginRound(turnQueries); err != nil {
			t.Fatal(err)
		}
		if err := r2.BeginRound(turnQueries); err != nil {
			t.Fatal(err)
		}
		bc := stream.NewBroadcaster(st)
		if err := bc.Replay(context.Background(), r1, r2); err != nil {
			t.Fatal(err)
		}
		got, err := r1.EndRound()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r2.EndRound(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("answer %d: scheduled %+v != standalone %+v", i, got[i], want[i])
			}
		}
	})
}

// TestPassRunnersStartNoGoroutines: a round belongs to the goroutine that
// drives it. Whatever SetParallelism asks for, BeginRound and a batch short
// of feedBlock start nothing that outlives the call — so a runner dropped
// mid-round is plain garbage — and the answers are those of one worker.
func TestPassRunnersStartNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.ErdosRenyiGNM(rng, 40, 200)
	type passRunner interface {
		oracle.PassRunner
		SetParallelism(int)
	}
	for _, c := range []struct {
		name string
		st   *stream.Slice
		qs   []oracle.Query
		mk   func(st stream.Stream) passRunner
	}{
		{"insertion", stream.FromGraph(g), insQueries(), func(st stream.Stream) passRunner {
			r, err := NewInsertionRunner(st, rand.New(rand.NewSource(35)))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"turnstile", stream.WithDeletions(g, 0.5, rng), []oracle.Query{
			q(oracle.CountEdges), q(oracle.RandomEdge), q(oracle.Degree, 3), q(oracle.RandomNeighbor, 2),
			q(oracle.Adjacent, 0, 1), q(oracle.RandomNeighbor, 7), q(oracle.RandomEdge),
		}, func(st stream.Stream) passRunner {
			return NewTurnstileRunner(st, rand.New(rand.NewSource(35)))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ups := c.st.Updates()
			if len(ups) >= feedBlock {
				t.Fatalf("%d updates are not short of a feed block", len(ups))
			}
			one := c.mk(c.st)
			one.SetParallelism(1)
			want, err := one.Round(c.qs)
			if err != nil {
				t.Fatal(err)
			}

			r := c.mk(c.st)
			r.SetParallelism(4)
			before := runtime.NumGoroutine()
			if err := r.BeginRound(c.qs); err != nil {
				t.Fatal(err)
			}
			if err := r.ConsumeBatch(ups); err != nil {
				t.Fatal(err)
			}
			// More, not different: a finished goroutine of an earlier test may
			// still be on its way out.
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%d goroutines mid-round, %d before it", got, before)
			}
			got, err := r.EndRound()
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, "4 workers asked for", want, got)
		})
	}
}

// TestRoundContextCancelBetweenBatches: the runners' ctx-aware round entry
// aborts its private replay between update batches, and a completed
// RoundContext answers bit-identically to plain Round.
func TestRoundContextCancelBetweenBatches(t *testing.T) {
	n := int64(2*stream.DefaultBatchSize + 10)
	ups := make([]stream.Update, 0, n-1)
	for i := int64(0); i < n-1; i++ {
		ups = append(ups, stream.Update{Edge: graph.Edge{U: i, V: i + 1}, Op: stream.Insert})
	}
	sl, err := stream.NewSlice(n, ups)
	if err != nil {
		t.Fatal(err)
	}
	qs := []oracle.Query{{Type: oracle.CountEdges}, {Type: oracle.Degree, U: 0}}

	t.Run("insertion", func(t *testing.T) {
		r1, err := NewInsertionRunner(sl, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r1.RoundContext(ctx, qs); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled RoundContext error = %v, want context.Canceled", err)
		}
		// The runner stays usable, and a completed RoundContext matches Round.
		want, err := r1.Round(qs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r1.RoundContext(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("answer %d: RoundContext %+v != Round %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("turnstile", func(t *testing.T) {
		r2 := NewTurnstileRunner(sl, rand.New(rand.NewSource(2)))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r2.RoundContext(ctx, qs); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled RoundContext error = %v, want context.Canceled", err)
		}
		if a, err := r2.RoundContext(context.Background(), qs); err != nil {
			t.Fatal(err)
		} else if a[0].Count != n-1 {
			t.Errorf("post-cancel round m=%d, want %d", a[0].Count, n-1)
		}
	})
}

// TestAnswersExpireAtNextRound pins the answer-lifetime rule of
// oracle.Runner.Round: a round's answers are the runner's buffer, and under
// pool.DebugDirty the next round smears it before refilling it, so a caller
// that reads a previous round's answers late reads sentinels — never the old
// values that an untouched tail of the buffer would otherwise still show.
func TestAnswersExpireAtNextRound(t *testing.T) {
	defer pool.SetDebug(pool.SetDebug(pool.DebugDirty))
	g := gen.Complete(6)
	st := stream.FromGraph(g)
	first := []oracle.Query{q(oracle.CountEdges), q(oracle.Degree, 1), q(oracle.Degree, 2), q(oracle.Adjacent, 0, 1)}
	second := first[:1]

	ins, err := NewInsertionRunner(st, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewPrefixIndex(st.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ForEachBatch(ix.Extend); err != nil {
		t.Fatal(err)
	}
	indexed, err := NewIndexedRunner(ix, ix.Extent(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	runners := map[string]oracle.Runner{
		"insertion": ins,
		"turnstile": NewTurnstileRunner(st, rand.New(rand.NewSource(1))),
		"indexed":   indexed,
	}
	for name, r := range runners {
		late, err := r.Round(first)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(late)
		if want[0].Count != 15 || want[1].Count != 5 || !want[3].Yes {
			t.Fatalf("%s: first round answers %+v", name, want)
		}
		now, err := r.Round(second)
		if err != nil {
			t.Fatal(err)
		}
		if len(now) != 1 || now[0] != want[0] {
			t.Errorf("%s: second round answers %+v, want [%+v]", name, now, want[0])
		}
		for i := len(second); i < len(first); i++ {
			if late[i] == want[i] || !late[i].OK || late[i].Count != -0x5a5a5a {
				t.Errorf("%s: answer %d of the expired round reads %+v, want the sentinel", name, i, late[i])
			}
		}
	}
}
