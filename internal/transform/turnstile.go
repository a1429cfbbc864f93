package transform

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

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
// (2) each buffered feed is netted by key (netFeed), and what a remaining
// entry costs once for all samplers — its fingerprint term (a field
// exponentiation) and its key hash — is filled in by a parallel sweep;
// (3) every sampler takes its whole feed in one UpdateFeed call,
// sampler-major so that its cells stay cache-resident, samplers in parallel.
// Stages 2 and 3 run whenever feedBlock updates have been buffered, and at
// the end of the pass: the sketches are linear, so their cells depend on the
// net vector only — not on where the feed was cut, nor on an insert and a
// delete that met inside one block — and a round buffers at most feedBlock
// updates however long the stream is. Sampler seeds are drawn sequentially at
// setup, so answers are bit-identical at any parallelism.
//
// The round's query state has InsertionRunner's shape — key tables filled at
// setup with flat state arrays beside them — plus the round's samplers as
// one list in query order. They are drawn from the runner's freelist and
// re-armed with Reseed — bit-identical to fresh construction — so
// steady-state rounds allocate no sampler cells; runners themselves recycle
// across engine generations through AcquireTurnstileRunner / Release.
type TurnstileRunner struct {
	st      stream.Stream
	rng     *rand.Rand
	l0cfg   sketch.L0Config
	paral   int
	rounds  int64
	queries int64
	space   int64

	// In-flight round state (BeginRound .. EndRound).
	curQueries  []oracle.Query
	curM        int64 // net edge count (insertions minus deletions)
	curBuffered int   // updates consumed since the feeds were last flushed
	curBase     uint64
	edgeSampled bool // some sampler of the round reads edgeFeed

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	samplers     []roundSampler // the round's samplers, in query order
	refs         []int32        // query index -> dense index of its vertex or pair
	verts        keyTable       // queried vertex -> index into vs
	vs           []turnVertex
	pairs        keyTable            // queried packed edge key -> index into mult
	mult         []int64             // signed multiplicity of each queried pair
	net          keyTable            // netFeed's key -> position in the netted feed
	freeSamplers []*sketch.L0Sampler // retired samplers awaiting Reseed
	batchEdges   []graph.Edge
	batchKeys    []uint64
	batchDelta   []int64
	edgeFeed     []sketch.FeedEntry
	scratch      []sketch.L0Scratch // UpdateFeed working memory, one per worker
	answers      []oracle.Answer    // EndRound's result, the caller's until the next round
}

// TurnstileRunner implements the session engine's round lifecycle.
var _ oracle.PassRunner = (*TurnstileRunner)(nil)

// feedBlock is how many updates a round buffers before it flushes the
// sampler feeds, so no feed holds more entries than this (a feed takes at
// most one entry per update).
const feedBlock = 4 * stream.DefaultBatchSize

// maxTurnstileVertices is ⌊√2⁶³⌋: an ℓ0-sampler cell sums its keys in an
// int64 and recovers none that reads negative, so a packed edge key — at most
// n²−1 — must stay below 2⁶³ or the edge can never be sampled.
const maxTurnstileVertices = 3037000499

// roundSampler is one f1 or f3 query of the round: the sampler that answers
// it and the feed that sampler reads.
type roundSampler struct {
	s     *sketch.L0Sampler
	query int32 // index of the query in the round
	vert  int32 // dense index of the vertex whose feed it reads; -1 for edgeFeed
}

// turnVertex is what a round keeps per queried vertex: its signed degree —
// the f2 answer — and, when an f3 sampler reads it, the buffered feed of its
// adjacency-list updates.
type turnVertex struct {
	deg     int64
	feed    []sketch.FeedEntry
	sampled bool
}

// vertex returns the dense index of queried vertex u, registering it on first
// sight with a zero degree and whatever emptied feed buffer an earlier round
// left at that index.
func (r *TurnstileRunner) vertex(u int64) int32 {
	k := r.verts.insert(uint64(u))
	if int(k) == len(r.vs) {
		r.vs = slices.Grow(r.vs, 1)[:k+1]
		r.vs[k] = turnVertex{feed: r.vs[k].feed[:0]}
	}
	return k
}

// incident is stage 1 for one update at a queried vertex.
func (v *turnVertex) incident(other, delta int64) {
	v.deg += delta
	if v.sampled {
		v.feed = append(v.feed, sketch.FeedEntry{Key: uint64(other), Delta: delta})
	}
}

// process is the round's stage 1 over one canonicalized batch: counters move,
// neighbor feeds grow.
func (r *TurnstileRunner) process(edges []graph.Edge, keys []uint64, deltas []int64) {
	if len(r.vs) > 0 {
		for i, e := range edges {
			if v := r.verts.find(uint64(e.U)); v >= 0 {
				r.vs[v].incident(e.V, deltas[i])
			}
			if v := r.verts.find(uint64(e.V)); v >= 0 {
				r.vs[v].incident(e.U, deltas[i])
			}
		}
	}
	if len(r.mult) > 0 {
		for i, key := range keys {
			if k := r.pairs.find(key); k >= 0 {
				r.mult[k] += deltas[i]
			}
		}
	}
}

// netFeed sums the deltas of each distinct key of a buffered feed into the
// key's first entry and drops the keys whose deltas cancel — in place, keeping
// first-occurrence order. The cells a sampler ends up with are the same: count
// and keySum are integer sums, and the Term FillFeed derives from a net delta
// is the canonical residue of the sum of the terms it replaces.
func (r *TurnstileRunner) netFeed(feed []sketch.FeedEntry) []sketch.FeedEntry {
	if len(feed) < 2 {
		return feed
	}
	r.net.resetFor(len(feed))
	n := 0
	for _, e := range feed {
		if k := int(r.net.insert(e.Key)); k < n {
			feed[k].Delta += e.Delta
		} else {
			feed[n] = e
			n++
		}
	}
	return slices.DeleteFunc(feed[:n], func(e sketch.FeedEntry) bool { return e.Delta == 0 })
}

// turnRunnerPool recycles released runners — the sampler freelist, key
// tables, feed and batch buffers — across engine generations, under the same
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
	pool.Dirty(r.samplers, roundSampler{query: 0x5a5a5a, vert: 0x5a5a5a})
	pool.Dirty(r.refs, 0x5a5a5a)
	r.verts.dirty()
	r.pairs.dirty()
	r.net.dirty()
	for i := range r.vs[:cap(r.vs)] {
		v := &r.vs[:cap(r.vs)][i]
		smearFeed(v.feed)
		v.deg, v.sampled = -0x5a5a5a, true
	}
	pool.DirtyInt64(r.mult)
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
// it nets and fills the feeds, applies each to its samplers and empties them.
// It changes nothing an answer can see — the cells a sampler ends the pass
// with do not depend on how often or where the feed was flushed.
func (r *TurnstileRunner) flushFeeds() {
	p := par.Workers(r.paral)
	for len(r.scratch) < p {
		r.scratch = append(r.scratch, sketch.L0Scratch{})
	}
	base := r.curBase
	r.curBuffered = 0

	// ---- Stage 2: every feed is netted by key, then the per-entry values
	// all samplers share are computed once per remaining entry by a parallel
	// sweep (the field exponentiation dominates the feed cost). ----
	edgeFeed := r.netFeed(r.edgeFeed)
	for i := range r.vs {
		r.vs[i].feed = r.netFeed(r.vs[i].feed)
	}
	const chunk = 2048
	par.For(p, (len(edgeFeed)+chunk-1)/chunk, func(c int) {
		sketch.FillFeed(base, edgeFeed[c*chunk:min((c+1)*chunk, len(edgeFeed))])
	})
	par.For(p, len(r.vs), func(i int) {
		sketch.FillFeed(base, r.vs[i].feed)
	})

	// ---- Stage 3: every sampler consumes its feed; samplers in parallel,
	// a contiguous run of them per worker, each worker with its own scratch.
	// Sampler state is private, so assignment cannot affect answers. ----
	tasks := r.samplers
	if len(tasks) > 0 {
		par.For(p, p, func(w int) {
			for _, t := range tasks[w*len(tasks)/p : (w+1)*len(tasks)/p] {
				feed := edgeFeed
				if t.vert >= 0 {
					feed = r.vs[t.vert].feed
				}
				t.s.UpdateFeed(feed, &r.scratch[w])
			}
		})
	}
	r.edgeFeed = edgeFeed[:0]
	for i := range r.vs {
		r.vs[i].feed = r.vs[i].feed[:0]
	}
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
	n := r.st.N()
	if err := checkUniverse(n); err != nil {
		return err
	}
	if n > maxTurnstileVertices {
		return fmt.Errorf("transform: %d vertices exceed the %d whose packed edge keys an ℓ0-sampler can recover (keys below 2^63)", n, int64(maxTurnstileVertices))
	}
	if len(queries) > math.MaxInt32 {
		return fmt.Errorf("transform: %d queries in one round exceed the int32 query index", len(queries))
	}
	expireAnswers(r.answers)
	r.AbortRound() // a round left open has no one to answer to
	r.rounds++
	r.queries += int64(len(queries))
	r.curQueries = queries
	r.curM = 0
	r.curBuffered = 0
	r.edgeSampled = false
	r.verts.reset()
	r.vs = r.vs[:0]
	r.pairs.reset()
	r.mult = r.mult[:0]
	r.refs = slices.Grow(r.refs[:0], len(queries))[:len(queries)] // written for Degree, Adjacent
	base := sketch.RandomFieldBase(r.rng.Uint64())
	r.curBase = base
	r.edgeFeed = r.edgeFeed[:0]

	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			r.space++
		case oracle.RandomEdge, oracle.RandomNeighbor:
			s := r.newSampler(r.rng.Uint64(), base)
			vert := int32(-1)
			if q.Type == oracle.RandomNeighbor {
				vert = r.vertex(q.U)
				r.vs[vert].sampled = true
			} else {
				r.edgeSampled = true
			}
			r.samplers = append(r.samplers, roundSampler{s: s, query: int32(i), vert: vert})
			r.space += s.SpaceWords()
		case oracle.Degree:
			r.refs[i] = r.vertex(q.U)
			r.space++
		case oracle.Neighbor:
			return fmt.Errorf("transform: Neighbor is an augmented-model query; the turnstile runner emulates the relaxed model (use RandomNeighbor)")
		case oracle.Adjacent:
			r.refs[i] = register(&r.pairs, edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n), &r.mult)
			r.space++
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	return nil
}

// AbortRound discards an in-flight round after a mid-pass failure,
// recycling the round's samplers (their poisoned state is irrelevant — reuse
// starts with Reseed). It is a no-op outside a round, which holds no sampler.
// Accounting keeps the aborted round's charges.
func (r *TurnstileRunner) AbortRound() {
	for _, t := range r.samplers {
		r.freeSamplers = append(r.freeSamplers, t.s)
	}
	r.samplers = r.samplers[:0]
	r.curQueries = nil
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
	if r.edgeSampled {
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
// still buffered, then answers read off the round's state through the
// references BeginRound recorded.
func (r *TurnstileRunner) EndRound() ([]oracle.Answer, error) {
	queries := r.curQueries
	n := r.st.N()
	m := r.curM
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
			answers[i] = oracle.Answer{OK: true, Count: r.vs[r.refs[i]].deg}
		case oracle.Adjacent:
			answers[i] = oracle.Answer{OK: true, Yes: r.mult[r.refs[i]] > 0}
		}
	}
	for _, t := range r.samplers {
		switch key, ok := t.s.Sample(); {
		case !ok:
			answers[t.query] = oracle.Answer{OK: false}
		case t.vert < 0:
			answers[t.query] = oracle.Answer{OK: true, Edge: keyEdge(key, n)}
		default:
			answers[t.query] = oracle.Answer{OK: true, Count: int64(key)}
		}
	}
	r.AbortRound() // the round is over: its samplers go back to the freelist
	return answers, nil
}
