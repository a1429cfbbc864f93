package transform

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/par"
	"streamcount/internal/pool"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

// TurnstileRunner answers query rounds over an arbitrary-order turnstile
// stream, one pass per round, realizing Theorem 11 (the relaxed augmented
// general graph model, Definition 10):
//
//	f1 (random edge)     — an ℓ0-sampler over the adjacency matrix;
//	f2 (degree)          — a signed counter per queried vertex;
//	f3 (random neighbor) — an ℓ0-sampler over the vertex's adjacency list;
//	f4 (adjacency)       — a signed counter per queried pair;
//
// so a k-round algorithm with q queries runs in k passes and O(q·log^4 n)
// bits. All ℓ0-samplers in a round share one fingerprint base so the
// per-update field exponentiation is computed once per feed entry.
//
// The pass is a three-stage pipeline: (1) the goroutine that calls
// ConsumeBatch updates the counters and buffers the sampler feeds;
// (2) what a feed entry costs once for all samplers — its fingerprint term
// (a field exponentiation) and its key hash — is filled in by a parallel
// sweep; (3) every sampler takes its whole feed in one UpdateFeed call,
// sampler-major so that its cells stay cache-resident, samplers in parallel.
// Stages 2 and 3 run whenever feedBlock updates have been buffered, and at
// the end of the pass: the sketches are linear, so their cells do not depend
// on where the feed was cut, and a round buffers at most feedBlock updates
// however long the stream is. Sampler seeds are drawn sequentially at setup,
// so answers are bit-identical at any parallelism.
//
// A round's samplers are drawn from the runner's freelist and re-armed with
// Reseed — bit-identical to fresh construction — so steady-state rounds
// allocate no sampler cells; runners themselves recycle across engine
// generations through AcquireTurnstileRunner / Release.
type TurnstileRunner struct {
	st      stream.Stream
	rng     *rand.Rand
	l0cfg   sketch.L0Config
	paral   int
	rounds  int64
	queries int64
	space   int64

	// In-flight round state (BeginRound .. EndRound).
	inRound      bool
	curQueries   []oracle.Query
	curM         int64 // net edge count (insertions minus deletions)
	curBuffered  int   // updates consumed since the feeds were last flushed
	curBase      uint64
	edgeSamplers []*sketch.L0Sampler // for RandomEdge queries
	edgeSampIdx  []int
	nbrSamplers  map[int64][]*sketch.L0Sampler // vertex -> samplers
	nbrSampIdx   map[int64][]int
	nbrVerts     []int64                      // deterministic iteration order over nbrSamplers
	deg          map[int64]int64              // queried vertex -> signed degree
	adj          map[uint64]int64             // queried packed edge key -> signed multiplicity
	nbrFeed      map[int64][]sketch.FeedEntry // RandomNeighbor vertex -> its buffered feed

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	freeSamplers []*sketch.L0Sampler  // retired samplers awaiting Reseed
	freeFeed     [][]sketch.FeedEntry // emptied feed buffers of earlier rounds
	batchEdges   []graph.Edge
	batchKeys    []uint64
	batchDelta   []int64
	edgeFeed     []sketch.FeedEntry
	tasks        []samplerTask
	scratch      []sketch.L0Scratch // UpdateFeed working memory, one per worker
	answers      []oracle.Answer    // EndRound's result, the caller's until the next round
}

// TurnstileRunner implements the session engine's round lifecycle.
var _ oracle.PassRunner = (*TurnstileRunner)(nil)

// feedBlock is how many updates a round buffers before it flushes the
// sampler feeds, so no feed holds more entries than this (a feed takes at
// most one entry per update).
const feedBlock = 4 * stream.DefaultBatchSize

// samplerTask pairs a sampler with the feed it consumes in stage 3.
type samplerTask struct {
	s    *sketch.L0Sampler
	feed []sketch.FeedEntry
}

// resetCounters empties the counter and feed tables for a new round, keeping
// the last round's feed buffers for newFeed to hand out again.
func (r *TurnstileRunner) resetCounters() {
	if r.deg == nil {
		r.deg = make(map[int64]int64)
		r.adj = make(map[uint64]int64)
		r.nbrFeed = make(map[int64][]sketch.FeedEntry)
		return
	}
	clear(r.deg)
	clear(r.adj)
	for _, f := range r.nbrFeed {
		r.freeFeed = append(r.freeFeed, f[:0])
	}
	clear(r.nbrFeed)
}

// newFeed returns an empty feed buffer, a recycled one when there is one.
// Which buffer a vertex gets is arbitrary and invisible: all are empty.
func (r *TurnstileRunner) newFeed() []sketch.FeedEntry {
	if n := len(r.freeFeed); n > 0 {
		f := r.freeFeed[n-1]
		r.freeFeed = r.freeFeed[:n-1]
		return f
	}
	return nil
}

// process is the round's stage 1 over one canonicalized batch: counters move,
// neighbor feeds grow.
func (r *TurnstileRunner) process(edges []graph.Edge, keys []uint64, deltas []int64) {
	if len(r.deg) == 0 && len(r.adj) == 0 && len(r.nbrFeed) == 0 {
		return
	}
	for i, e := range edges {
		d := deltas[i]
		if _, ok := r.deg[e.U]; ok {
			r.deg[e.U] += d
		}
		if _, ok := r.deg[e.V]; ok {
			r.deg[e.V] += d
		}
		if _, ok := r.nbrFeed[e.U]; ok {
			r.nbrFeed[e.U] = append(r.nbrFeed[e.U], sketch.FeedEntry{Key: uint64(e.V), Delta: d})
		}
		if _, ok := r.nbrFeed[e.V]; ok {
			r.nbrFeed[e.V] = append(r.nbrFeed[e.V], sketch.FeedEntry{Key: uint64(e.U), Delta: d})
		}
		if _, ok := r.adj[keys[i]]; ok {
			r.adj[keys[i]] += d
		}
	}
}

// turnRunnerPool recycles released runners — the sampler freelist, counter
// maps, feed and batch buffers — across engine generations, under the same
// reset ≡ fresh obligation as the insertion pool (DESIGN.md §12).
var turnRunnerPool = pool.New(
	func() *TurnstileRunner { return &TurnstileRunner{} },
	func(r *TurnstileRunner) {},
	dirtyTurnRunner,
)

func dirtyTurnRunner(r *TurnstileRunner) {
	for _, s := range r.freeSamplers {
		s.Dirty()
	}
	smearFeed(r.edgeFeed)
	for _, f := range r.nbrFeed {
		smearFeed(f)
	}
	for _, f := range r.freeFeed {
		smearFeed(f)
	}
	pool.Dirty(r.batchEdges, graph.Edge{U: -0x5a5a5a, V: -0x5a5a5a})
	pool.DirtyUint64(r.batchKeys)
	pool.DirtyInt64(r.batchDelta)
	smearAnswers(r.answers)
}

func smearFeed(feed []sketch.FeedEntry) {
	pool.Dirty(feed, sketch.FeedEntry{Key: 0xdeaddead, Delta: -0x5a5a5a, Term: 0xdeaddead, KeyHash: 0xdeaddead})
}

// defaultL0Config sizes the samplers to the universe: supports are at most
// n^2 keys, so ~2·log2(n) + slack levels suffice.
func defaultL0Config(n int64) sketch.L0Config {
	levels := int(2*math.Ceil(math.Log2(float64(n+2)))) + 8
	return sketch.L0Config{Levels: levels, Buckets: 8, Reps: 2}
}

// NewTurnstileRunner wraps the stream (insertions and deletions allowed).
// The turnstile constructors return no error, so a stream over more than
// maxVertices vertices is rejected by the first BeginRound instead.
func NewTurnstileRunner(st stream.Stream, rng *rand.Rand) *TurnstileRunner {
	return NewTurnstileRunnerConfig(st, rng, defaultL0Config(st.N()))
}

// NewTurnstileRunnerConfig is NewTurnstileRunner with an explicit
// ℓ0-sampler configuration. Smaller configurations save space but raise the
// sampler failure probability, which biases estimators downward (failed
// trials contribute zero); the E12 ablation quantifies the trade-off.
func NewTurnstileRunnerConfig(st stream.Stream, rng *rand.Rand, cfg sketch.L0Config) *TurnstileRunner {
	return &TurnstileRunner{st: st, rng: rng, l0cfg: cfg}
}

// AcquireTurnstileRunner is NewTurnstileRunner over a process-wide runner
// pool: the returned runner is rebound to st and rng with fresh accounting
// but keeps a released predecessor's grown scratch. A freelist sampler only
// survives the rebind if the sampler geometry is unchanged; otherwise the
// freelist is dropped and rounds rebuild it at the new shape.
func AcquireTurnstileRunner(st stream.Stream, rng *rand.Rand) *TurnstileRunner {
	cfg := defaultL0Config(st.N())
	r := turnRunnerPool.Get()
	if r.l0cfg != cfg {
		r.freeSamplers = nil
	}
	r.st, r.rng, r.l0cfg = st, rng, cfg
	r.paral = 0
	r.rounds, r.queries, r.space = 0, 0, 0
	r.inRound = false
	r.curQueries = nil
	r.curM, r.curBuffered, r.curBase = 0, 0, 0
	return r
}

// Release aborts any in-flight round and returns the runner to the pool.
// The runner must not be used afterwards.
func (r *TurnstileRunner) Release() {
	r.AbortRound()
	r.st, r.rng = nil, nil
	turnRunnerPool.Put(r)
}

// SetParallelism bounds the workers of the sampler stages (flushFeeds).
// p <= 0 selects GOMAXPROCS, 1 forces the sequential path. Answers do not
// depend on p.
func (r *TurnstileRunner) SetParallelism(p int) { r.paral = p }

// Model implements oracle.Runner.
func (r *TurnstileRunner) Model() oracle.Model { return oracle.Relaxed }

// Rounds implements oracle.Runner.
func (r *TurnstileRunner) Rounds() int64 { return r.rounds }

// Queries implements oracle.Runner.
func (r *TurnstileRunner) Queries() int64 { return r.queries }

// SpaceWords implements oracle.Runner.
func (r *TurnstileRunner) SpaceWords() int64 { return r.space }

// NumVertices implements oracle.Runner.
func (r *TurnstileRunner) NumVertices() int64 { return r.st.N() }

// newSampler returns a sampler armed like NewL0SamplerWithBase(seed, base,
// r.l0cfg), reusing a freelist entry when one is available. Freelist
// entries always share the runner's geometry, and Reseed is bit-identical
// to fresh construction, so pooled and fresh rounds answer identically.
func (r *TurnstileRunner) newSampler(seed, base uint64) *sketch.L0Sampler {
	if n := len(r.freeSamplers); n > 0 {
		s := r.freeSamplers[n-1]
		r.freeSamplers = r.freeSamplers[:n-1]
		s.Reseed(seed, base)
		return s
	}
	return sketch.NewL0SamplerWithBase(seed, base, r.l0cfg)
}

// flushFeeds is the round's stages 2 and 3 over everything buffered so far:
// it fills the feeds, applies each to its samplers and empties them. It
// changes nothing an answer can see — the cells a sampler ends the pass with
// do not depend on how often or where the feed was flushed.
func (r *TurnstileRunner) flushFeeds() {
	p := par.Workers(r.paral)
	for len(r.scratch) < p {
		r.scratch = append(r.scratch, sketch.L0Scratch{})
	}
	base := r.curBase
	r.curBuffered = 0

	// ---- Stage 2: the per-entry values all samplers share, computed once
	// per feed entry by a parallel sweep (the field exponentiation dominates
	// the feed cost). ----
	const chunk = 2048
	edgeFeed := r.edgeFeed
	par.For(p, (len(edgeFeed)+chunk-1)/chunk, func(c int) {
		sketch.FillFeed(base, edgeFeed[c*chunk:min((c+1)*chunk, len(edgeFeed))])
	})
	par.For(p, len(r.nbrVerts), func(i int) {
		sketch.FillFeed(base, r.nbrFeed[r.nbrVerts[i]])
	})

	// ---- Stage 3: every sampler consumes its feed; samplers in parallel,
	// a contiguous run of them per worker, each worker with its own scratch.
	// Sampler state is private, so assignment cannot affect answers. ----
	tasks := r.tasks[:0]
	for _, s := range r.edgeSamplers {
		tasks = append(tasks, samplerTask{s, edgeFeed})
	}
	for _, v := range r.nbrVerts {
		for _, s := range r.nbrSamplers[v] {
			tasks = append(tasks, samplerTask{s, r.nbrFeed[v]})
		}
		r.nbrFeed[v] = r.nbrFeed[v][:0]
	}
	r.tasks = tasks
	r.edgeFeed = edgeFeed[:0]
	if len(tasks) == 0 {
		return
	}
	par.For(p, p, func(w int) {
		for _, t := range tasks[w*len(tasks)/p : (w+1)*len(tasks)/p] {
			t.s.UpdateFeed(t.feed, &r.scratch[w])
		}
	})
}

// Round implements oracle.Runner: one pass answers the whole batch. It is
// BeginRound + one private replay + EndRound, so a standalone runner and a
// session-scheduled one answer identically.
func (r *TurnstileRunner) Round(queries []oracle.Query) ([]oracle.Answer, error) {
	return r.RoundContext(context.Background(), queries)
}

// RoundContext is Round with cancellation checked between the update batches
// of the private replay: when ctx is done the pass aborts with the context's
// error before the next batch is consumed. Cancellation never changes
// answers — a round that completes is bit-identical to an uncancellable one.
func (r *TurnstileRunner) RoundContext(ctx context.Context, queries []oracle.Query) ([]oracle.Answer, error) {
	if err := r.BeginRound(queries); err != nil {
		r.AbortRound()
		return nil, err
	}
	err := r.st.ForEachBatch(func(batch []stream.Update) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return r.ConsumeBatch(batch)
	})
	if err != nil {
		r.AbortRound()
		return nil, err
	}
	return r.EndRound()
}

// BeginRound implements oracle.PassRunner: it registers the round's queries,
// counters and ℓ0-samplers, drawing sampler seeds in query order.
func (r *TurnstileRunner) BeginRound(queries []oracle.Query) error {
	if err := checkUniverse(r.st.N()); err != nil {
		return err
	}
	expireAnswers(r.answers)
	r.rounds++
	r.queries += int64(len(queries))
	r.inRound = true
	r.curQueries = queries
	r.curM = 0
	r.curBuffered = 0
	n := r.st.N()
	r.resetCounters()
	base := sketch.RandomFieldBase(r.rng.Uint64())
	r.curBase = base
	r.edgeFeed = r.edgeFeed[:0]

	edgeSamplers := r.edgeSamplers[:0]
	edgeSampIdx := r.edgeSampIdx[:0]
	if r.nbrSamplers == nil {
		r.nbrSamplers = make(map[int64][]*sketch.L0Sampler)
		r.nbrSampIdx = make(map[int64][]int)
	} else {
		clear(r.nbrSamplers)
		clear(r.nbrSampIdx)
	}
	nbrSamplers, nbrSampIdx := r.nbrSamplers, r.nbrSampIdx
	nbrVerts := r.nbrVerts[:0] // deterministic iteration order over nbrSamplers
	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			r.space++
		case oracle.RandomEdge:
			s := r.newSampler(r.rng.Uint64(), base)
			edgeSamplers = append(edgeSamplers, s)
			edgeSampIdx = append(edgeSampIdx, i)
			r.space += s.SpaceWords()
		case oracle.Degree:
			if _, ok := r.deg[q.U]; !ok {
				r.deg[q.U] = 0
			}
			r.space++
		case oracle.RandomNeighbor:
			s := r.newSampler(r.rng.Uint64(), base)
			if _, ok := nbrSamplers[q.U]; !ok {
				nbrVerts = append(nbrVerts, q.U)
				r.nbrFeed[q.U] = r.newFeed()
			}
			nbrSamplers[q.U] = append(nbrSamplers[q.U], s)
			nbrSampIdx[q.U] = append(nbrSampIdx[q.U], i)
			r.space += s.SpaceWords()
		case oracle.Neighbor:
			return fmt.Errorf("transform: Neighbor is an augmented-model query; the turnstile runner emulates the relaxed model (use RandomNeighbor)")
		case oracle.Adjacent:
			key := edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n)
			if _, ok := r.adj[key]; !ok {
				r.adj[key] = 0
			}
			r.space++
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	r.edgeSamplers, r.edgeSampIdx = edgeSamplers, edgeSampIdx
	r.nbrVerts = nbrVerts
	return nil
}

// AbortRound discards an in-flight round after a mid-pass failure,
// recycling the round's samplers (their poisoned state is irrelevant — reuse
// starts with Reseed). It is a no-op outside a round. Accounting keeps the
// aborted round's charges.
func (r *TurnstileRunner) AbortRound() {
	if !r.inRound {
		return
	}
	r.recycleSamplers()
	r.curQueries = nil
	r.inRound = false
}

// recycleSamplers moves the round's samplers to the freelist and empties
// the round's sampler registry.
func (r *TurnstileRunner) recycleSamplers() {
	r.freeSamplers = append(r.freeSamplers, r.edgeSamplers...)
	for _, v := range r.nbrVerts {
		r.freeSamplers = append(r.freeSamplers, r.nbrSamplers[v]...)
	}
	r.edgeSamplers = r.edgeSamplers[:0]
	r.edgeSampIdx = r.edgeSampIdx[:0]
	clear(r.nbrSamplers)
	clear(r.nbrSampIdx)
	r.nbrVerts = r.nbrVerts[:0]
}

// ConsumeBatch implements oracle.PassRunner (the round's stage 1): counters
// are updated in place; sampler feeds are buffered, a block of feedBlock
// updates at a time, so each sampler can consume a whole block sequentially,
// keeping its cells cache-resident (processing thousands of samplers per
// incoming update would thrash the cache).
func (r *TurnstileRunner) ConsumeBatch(batch []stream.Update) error {
	for len(batch) > 0 {
		if r.curBuffered == feedBlock {
			r.flushFeeds()
		}
		k := min(len(batch), feedBlock-r.curBuffered)
		r.buffer(batch[:k])
		batch = batch[k:]
	}
	return nil
}

// buffer consumes updates that fit into the current feed block.
func (r *TurnstileRunner) buffer(batch []stream.Update) {
	n := r.st.N()
	edges := r.batchEdges[:0]
	keys := r.batchKeys[:0]
	deltas := r.batchDelta[:0]
	for _, u := range batch {
		delta := int64(1)
		if u.Op == stream.Delete {
			delta = -1
		}
		e := u.Edge.Canon()
		r.curM += delta
		edges = append(edges, e)
		keys = append(keys, edgeKey(e, n))
		deltas = append(deltas, delta)
	}
	r.batchEdges, r.batchKeys, r.batchDelta = edges, keys, deltas
	r.curBuffered += len(batch)
	r.process(edges, keys, deltas)
	// The edge-matrix feed buffer doubles as it grows, but never past the
	// one block it can be asked to hold.
	if len(r.edgeSamplers) > 0 {
		if need := len(r.edgeFeed) + len(keys); need > cap(r.edgeFeed) {
			grown := make([]sketch.FeedEntry, 0, min(max(need, 2*cap(r.edgeFeed)), feedBlock))
			r.edgeFeed = append(grown, r.edgeFeed...)
		}
		for i, key := range keys {
			r.edgeFeed = append(r.edgeFeed, sketch.FeedEntry{Key: key, Delta: deltas[i]})
		}
	}
}

// EndRound implements oracle.PassRunner: the sampler stages over what is
// still buffered, and the sequential in-query-order merge.
func (r *TurnstileRunner) EndRound() ([]oracle.Answer, error) {
	queries := r.curQueries
	n := r.st.N()
	m := r.curM
	edgeSamplers, edgeSampIdx := r.edgeSamplers, r.edgeSampIdx
	nbrSamplers, nbrSampIdx, nbrVerts := r.nbrSamplers, r.nbrSampIdx, r.nbrVerts

	r.flushFeeds()

	// ---- Merge (sequential, in query order). Every query assigns its
	// answer, so the buffer is not cleared first. ----
	answers := answerBuffer(r.answers, len(queries))
	r.answers = answers
	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			answers[i] = oracle.Answer{OK: true, Count: m}
		case oracle.Degree:
			answers[i] = oracle.Answer{OK: true, Count: r.deg[q.U]}
		case oracle.Adjacent:
			key := edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n)
			answers[i] = oracle.Answer{OK: true, Yes: r.adj[key] > 0}
		}
	}
	for j, s := range edgeSamplers {
		if key, ok := s.Sample(); ok {
			answers[edgeSampIdx[j]] = oracle.Answer{OK: true, Edge: keyEdge(key, n)}
		} else {
			answers[edgeSampIdx[j]] = oracle.Answer{OK: false}
		}
	}
	for _, v := range nbrVerts {
		for j, s := range nbrSamplers[v] {
			if key, ok := s.Sample(); ok {
				answers[nbrSampIdx[v][j]] = oracle.Answer{OK: true, Count: int64(key)}
			} else {
				answers[nbrSampIdx[v][j]] = oracle.Answer{OK: false}
			}
		}
	}
	r.recycleSamplers()
	r.curQueries = nil
	r.inRound = false
	return answers, nil
}
