package ers

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// raceEnabled is set under the race detector, whose sync.Pool drops values at
// random.
var raceEnabled bool

// hygieneStep is one count of the pool-hygiene sequence, on an insertion
// runner over a shuffled stream of g.
type hygieneStep struct {
	name     string
	g        *graph.Graph
	p        Params
	seed     int64
	override bool // CountWithActiveness under the exact activeness rule
}

// hygieneSteps is a sequence of counts that leaves a scratch in every state
// a count can find it in: a large triangle count, then a smaller one served
// by the larger recycled scratch, a K4 count on the K4 golden's graph, the
// abort on a chain's first step at r = 3 and 4, a count under an activeness
// override, and an empty graph.
func hygieneSteps(t *testing.T) []hygieneStep {
	t.Helper()
	lam := func(g *graph.Graph) int64 { l, _ := graph.Degeneracy(g); return l }
	large := baWithCliques(41, 400, 3, 3, 40)
	small := baWithCliques(42, 100, 3, 3, 6)
	krng := rand.New(rand.NewSource(7))
	k4 := gen.PlantCliques(krng, gen.BarabasiAlbert(krng, 80, 2), 4, 6)
	steps := []hygieneStep{
		{"large K3", large, Params{R: 3, Lambda: lam(large), Eps: 0.4, L: 80}, 1, false},
		{"small K3", small, Params{R: 3, Lambda: lam(small), Eps: 0.4, L: 100, Q: 3, QAct: 3}, 2, false},
		{"K4", k4, Params{R: 4, Lambda: lam(k4), Eps: 0.5, L: 12, Q: 3, QAct: 5}, 6, false},
	}
	// The cap sits at s_2, which depends only on m and the parameters, so
	// every invocation aborts on its chain's first step.
	for _, r := range []int{3, 4} {
		g := baWithCliques(3, 300, 3, int64(r), 30)
		p := Params{R: r, Lambda: 1, Eps: 0.4, L: 45, TauC: 1, SampleC: 1}
		s2 := runStep(t, flatCount, hygieneStep{g: g, p: p, seed: 2}).res.S2Sizes[0]
		p.MaxLevelSamples = s2
		steps = append(steps, hygieneStep{fmt.Sprintf("K%d abort", r), g, p, 2, false})
	}
	return append(steps,
		hygieneStep{"K3 exact activeness", small, Params{R: 3, Lambda: lam(small), Eps: 0.4, L: 100, Q: 3}, 3, true},
		hygieneStep{"empty", graph.New(10), Params{R: 3, Lambda: 1, Eps: 0.4, L: 1}, 4, false},
	)
}

func runStepErr(count countFn, s hygieneStep) (counted, error) {
	rng := rand.New(rand.NewSource(s.seed))
	r, err := transform.NewInsertionRunner(stream.Shuffled(stream.FromGraph(s.g), rand.New(rand.NewSource(s.seed+100))), rng)
	if err != nil {
		return counted{}, err
	}
	var active func([]int64) bool
	if s.override {
		p, err := s.p.withDefaults()
		if err != nil {
			return counted{}, err
		}
		active = exactActiveness(s.g, p)
	}
	res, implied, err := count(r, s.p, rng, active)
	if err != nil {
		return counted{}, fmt.Errorf("%s: %w", s.name, err)
	}
	return counted{res, r.Queries(), r.SpaceWords(), implied}, nil
}

func runStep(t *testing.T, count countFn, s hygieneStep) counted {
	t.Helper()
	c, err := runStepErr(count, s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runSequence(count countFn, steps []hygieneStep) ([]counted, error) {
	out := make([]counted, len(steps))
	for i, s := range steps {
		c, err := runStepErr(count, s)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// TestCountPoolHygiene is the reset ≡ fresh obligation (DESIGN.md §12) for
// the count's scratch: the hygiene sequence runs with every scratch fresh,
// then recycled from a pool that smears it first, then recycled as is, and
// every Result field and the runner's bill must be the same bits in all
// three. The fresh run must also be the reference chain's result, bill less
// its implied queries, which pins the numbering to first-seen order.
func TestCountPoolHygiene(t *testing.T) {
	defer pool.SetDebug(pool.SetDebug(pool.DebugOff))
	steps := hygieneSteps(t)
	var fresh []counted
	for _, mode := range []int32{pool.DebugDisable, pool.DebugDirty, pool.DebugOff} {
		pool.SetDebug(mode)
		got, err := runSequence(flatCount, steps)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == nil {
			fresh = got
			for i, s := range steps {
				sameCounted(t, s.name+", fresh vs reference", got[i], runStep(t, referenceCount, s), 1)
			}
			continue
		}
		for i, s := range steps {
			sameCounted(t, fmt.Sprintf("%s, debug mode %d", s.name, mode), got[i], fresh[i], 0)
		}
	}
}

// TestCountResultOwnership keeps one count's Result while two more counts
// run on the scratch it released, smeared in between, and requires it
// unchanged: a Result shares no memory with the scratch. Four goroutines
// then run the whole hygiene sequence at once, each out of its own scratch,
// and must see the sequential results.
func TestCountResultOwnership(t *testing.T) {
	defer pool.SetDebug(pool.SetDebug(pool.DebugDirty))
	steps := hygieneSteps(t)
	kept := runStep(t, flatCount, steps[0]).res
	want := *kept
	want.PerInvocation = slices.Clone(kept.PerInvocation)
	want.RrSizes = slices.Clone(kept.RrSizes)
	want.S2Sizes = slices.Clone(kept.S2Sizes)
	runStep(t, flatCount, steps[1])
	runStep(t, flatCount, steps[2])
	sameResult(t, "kept result", kept, &want)

	pool.SetDebug(pool.DebugOff)
	seq, err := runSequence(flatCount, steps)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		got  [4][]counted
		errs [4]error
	)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = runSequence(flatCount, steps)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, s := range steps {
			sameCounted(t, fmt.Sprintf("%s, goroutine %d", s.name, g), got[g][i], seq[i], 0)
		}
	}
}

// TestCountSteadyStateAllocs bounds what a count allocates once its scratch
// is warm, in BenchmarkERSCliqueCount's shape: the Result and what the
// runner's passes allocate, and no chain slab, no arena chunk, no table
// slot. The bytes bound is half an arena chunk, so one chunk or one slab
// made per count breaks it, and the same bounds hold when QAct doubles,
// which doubles the activeness chains. After one warm-up count, the
// smallest of three counts is taken: the count runs on one P, as pools are
// per P and a goroutine moved to another finds the runner's pool empty, and
// a count that follows a collection may still find its runner dropped.
func TestCountSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	const maxObjects, maxBytes = 32, arenaChunk * 8 / 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(3))
	g := gen.PlantCliques(rng, gen.BarabasiAlbert(rng, 800, 3), 3, 80)
	lambda, _ := graph.Degeneracy(g)
	st := stream.Shuffled(stream.FromGraph(g), rng)
	l := float64(exact.Cliques(g, 3))

	chains := map[int]int{}
	for _, qact := range []int{7, 14} {
		p := Params{R: 3, Lambda: lambda, Eps: 0.4, L: l, QAct: qact}
		sc := &countScratch{}
		count := func(seed int64) (objects, bytes uint64) {
			qrng := rand.New(rand.NewSource(seed))
			r, err := transform.AcquireInsertionRunner(st, qrng)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()
			sc.reset()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := sc.count(r, p, qrng, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		count(1)
		objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for seed := int64(2); seed <= 4; seed++ {
			o, b := count(seed)
			objects, bytes = min(objects, o), min(bytes, b)
		}
		chains[qact] = len(sc.act.chains)
		t.Logf("QAct %d: %d activeness chains; a warm count allocates %d objects, %d bytes", qact, chains[qact], objects, bytes)
		if objects > maxObjects || bytes > maxBytes {
			t.Errorf("QAct %d: a warm count allocates %d objects and %d bytes, want at most %d and %d", qact, objects, bytes, maxObjects, maxBytes)
		}
	}
	if chains[14] != 2*chains[7] || chains[7] == 0 {
		t.Errorf("doubling QAct took the activeness chains from %d to %d, want twice as many", chains[7], chains[14])
	}
}

// TestCountScratchDirtySmearsAll requires the dirty hook to smear every
// buffer a count leaves in its scratch, to capacity: a buffer it missed
// would be served as the last count left it under DebugDirty, and the
// hygiene suite could no longer tell a forgotten reset from a sound one.
func TestCountScratchDirtySmearsAll(t *testing.T) {
	sc := &countScratch{}
	onScratch := func(r oracle.Runner, p Params, rng *rand.Rand, active func([]int64) bool) (*Result, int64, error) {
		res, err := sc.count(r, p, rng, active)
		return res, 0, err
	}
	for _, s := range hygieneSteps(t)[:3] {
		sc.reset()
		runStep(t, onScratch, s)
	}
	if len(sc.act.chains) == 0 || sc.act.njobs == 0 {
		t.Fatal("precondition: the counts left no chain slab and no job")
	}
	dirtyCountScratch(sc)

	words := func(name string, s []int64) {
		for i, w := range s[:cap(s)] {
			if w != dirtyWord {
				t.Fatalf("%s[%d] = %d after dirty", name, i, w)
			}
		}
	}
	int32s := func(name string, s []int32) {
		for i, w := range s[:cap(s)] {
			if w != dirtyInt && w != 0x5a5a5a5a {
				t.Fatalf("%s[%d] = %d after dirty", name, i, w)
			}
		}
	}
	chain := func(name string, c *levelChain) {
		if c.env != nil || c.t != dirtyInt || c.n != dirtyInt || !c.aborted || c.verts != nil || c.pend != nil || !math.IsNaN(c.omega) {
			t.Fatalf("%s = %+v after dirty", name, *c)
		}
	}
	for _, env := range [2]*chainEnv{&sc.inv, &sc.act} {
		words("arena chunk", env.arena.chunk)
		words("prefix", env.prefix)
		words("nextV", env.nextV)
		words("nextD", env.nextD)
		words("vs", env.vs)
		words("ds", env.ds)
		words("numbers.verts", env.numbers.verts)
		int32s("numbers.ends", env.numbers.ends)
		for i, o := range env.ord[:cap(env.ord)] {
			if o != dirtyInt {
				t.Fatalf("ord[%d] = %d after dirty", i, o)
			}
		}
		slab := env.chains[:cap(env.chains)]
		for i := range slab {
			chain(fmt.Sprintf("chains[%d]", i), &slab[i])
		}
		for k, j := range env.jobs[:cap(env.jobs)] {
			label := fmt.Sprintf("job %d ", k)
			int32s(label+"clique", j.clique)
			words(label+"sorted", j.sorted)
			words(label+"sortedDegs", j.sortedDegs)
			int32s(label+"perms", j.perms)
			words(label+"seeds", j.seeds)
			words(label+"assigned", j.assigned)
			for _, lv := range j.level[:cap(j.level)] {
				if lv != dirtyInt {
					t.Fatalf("%slevel holds %d after dirty", label, lv)
				}
			}
			for _, bs := range [][]bool{j.active, j.has} {
				if slices.Contains(bs[:cap(bs)], false) {
					t.Fatalf("%sflags hold false after dirty", label)
				}
			}
		}
	}
	for i := range sc.invs[:cap(sc.invs)] {
		iv := &sc.invs[:cap(sc.invs)][i]
		chain(fmt.Sprintf("invs[%d].chain", i), &iv.chain)
		if iv.m != dirtyWord || iv.s2 != dirtyWord {
			t.Fatalf("invs[%d] = %+v after dirty", i, *iv)
		}
	}
	for i, task := range sc.tasks[:cap(sc.tasks)] {
		if task != nil {
			t.Fatalf("tasks[%d] set after dirty", i)
		}
	}
}

// TestTupleTableHashCollision: tuples that share a hash, or whose natural
// hash is another tuple's rehash, keep distinct numbers in first-seen order,
// in whichever order they arrive. For width 2, hashTuple is
// ((2 ^ a)·M ^ b)·M, so (a, b) and (a', b ^ (2 ^ a)·M ^ (2 ^ a')·M) collide.
func TestTupleTableHashCollision(t *testing.T) {
	const m = uint64(tupleHashMul)
	var a, b, a2 uint64 = 3, 11, 5
	b2 := int64(b ^ (2^a)*m ^ (2^a2)*m)
	first, second := []int64{int64(a), int64(b)}, []int64{int64(a2), b2}
	h := hashTuple(first)
	if hashTuple(second) != h {
		t.Fatal("precondition: the two tuples do not share a hash")
	}
	var c uint64 = 7
	third := []int64{int64(c), int64((h + 1) ^ (2^c)*m)}
	if hashTuple(third) != rehash(h) {
		t.Fatal("precondition: the third tuple's hash is not the first rehash")
	}
	for _, order := range [][][]int64{{first, second, third}, {third, first, second}, {second, third, first}} {
		var tab tupleTable
		tab.resetFor(len(order), 2)
		for want, vs := range order {
			if k, fresh := tab.number(vs); k != int32(want) || !fresh {
				t.Fatalf("order %v: first number(%v) = %d, %v; want %d, true", order, vs, k, fresh, want)
			}
		}
		for want, vs := range order {
			if k, fresh := tab.number(vs); k != int32(want) || fresh {
				t.Fatalf("order %v: number(%v) again = %d, %v; want %d, false", order, vs, k, fresh, want)
			}
			if got := tab.tuple(int32(want)); !slices.Equal(got, vs) {
				t.Fatalf("order %v: tuple(%d) = %v, want %v", order, want, got, vs)
			}
		}
	}
}
