package transform

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"streamcount/internal/graph"
	"streamcount/internal/keytab"
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
// (3) every sampler takes its whole feed in one call, sampler-major so that
// its cells stay cache-resident, samplers in parallel. Stages 2 and 3 run
// whenever feedBlock updates have been buffered, where each sampler applies
// its feed (UpdateFeed), and at the end of the pass, where each sampler
// answers its query from its stored cells and its last feed (SampleFeed)
// without applying it. The sketches are linear, so the answer depends on the
// net vector only — not on where the feed was cut, nor on an insert and a
// delete that met inside one block — and a round buffers at most feedBlock
// updates however long the stream is. Sampler seeds are drawn sequentially at
// setup, so answers are bit-identical at any parallelism.
//
// The round's query state has InsertionRunner's shape — the front end's key
// tables with flat state arrays beside them — plus the round's samplers as
// one list in query order. They are drawn from the runner's freelist and
// re-armed with Reseed — bit-identical to fresh construction — so
// steady-state rounds allocate no sampler cells; runners themselves recycle
// across engine generations through AcquireTurnstileRunner / Release.
type TurnstileRunner struct {
	round
	st    stream.Stream
	l0cfg sketch.L0Config
	paral int

	// In-flight round state (BeginRound .. EndRound).
	curBuffered int // updates consumed since the feeds were last flushed
	curBase     uint64

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	samplers     []roundSampler      // the round's samplers, in query order
	vs           []turnVertex        // per queried vertex, beside verts
	net          keytab.Table        // netFeed's key -> position in the netted feed
	freeSamplers []*sketch.L0Sampler // retired samplers awaiting Reseed
	edgeFeed     []sketch.FeedEntry
	scratch      []sketch.L0Scratch // UpdateFeed/SampleFeed working memory, one per worker
}

// feedBlock is how many updates a round buffers before it flushes the
// sampler feeds, so no feed holds more entries than this (a feed takes at
// most one entry per update).
const feedBlock = 4 * stream.DefaultBatchSize

// maxTurnstileVertices is ⌊√2⁶³⌋: an ℓ0-sampler cell sums its keys in an
// int64 and recovers none that reads negative, so an edge's dense index
// u·n + v — at most n²−1 — must stay below 2⁶³ or the edge can never be
// sampled.
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

// incident is stage 1 for one update at a queried vertex.
func (v *turnVertex) incident(other, delta int64) {
	v.deg += delta
	if v.sampled {
		v.feed = append(v.feed, sketch.FeedEntry{Key: uint64(other), Delta: delta})
	}
}

// process is the round's stage 1 over the batch the front end canonicalized:
// degrees move, neighbor feeds and the edge feed grow.
func (r *TurnstileRunner) process() {
	if len(r.vs) > 0 {
		for i, key := range r.keys {
			e := graph.KeyEdge(key)
			if v := r.verts.Find(uint64(e.U)); v >= 0 {
				r.vs[v].incident(e.V, r.deltas[i])
			}
			if v := r.verts.Find(uint64(e.V)); v >= 0 {
				r.vs[v].incident(e.U, r.deltas[i])
			}
		}
	}
	// The edge-matrix feed buffer doubles as it grows, but never past the
	// one block it can be asked to hold. Its keys are dense indices u·n + v,
	// which the samplers' int64 key sums need below 2⁶³.
	if r.kinds[oracle.RandomEdge] > 0 {
		if need := len(r.edgeFeed) + len(r.keys); need > cap(r.edgeFeed) {
			grown := make([]sketch.FeedEntry, 0, min(max(need, 2*cap(r.edgeFeed)), feedBlock))
			r.edgeFeed = append(grown, r.edgeFeed...)
		}
		for i, key := range r.keys {
			r.edgeFeed = append(r.edgeFeed, sketch.FeedEntry{Key: edgeKey(graph.KeyEdge(key), r.n), Delta: r.deltas[i]})
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
	r.net.ResetFor(len(feed))
	n := 0
	for _, e := range feed {
		if k := int(r.net.Insert(e.Key)); k < n {
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
var turnRunnerPool = pool.New(newTurnstileRunner, func(*TurnstileRunner) {}, dirtyTurnRunner)

func newTurnstileRunner() *TurnstileRunner {
	return &TurnstileRunner{round: round{model: oracle.Relaxed, keyed: true}}
}

func dirtyTurnRunner(r *TurnstileRunner) {
	r.round.dirty()
	for _, s := range r.freeSamplers {
		s.Dirty()
	}
	smearFeed(r.edgeFeed)
	pool.Dirty(r.samplers, roundSampler{query: 0x5a5a5a, vert: 0x5a5a5a})
	r.net.Dirty()
	for i := range r.vs[:cap(r.vs)] {
		v := &r.vs[:cap(r.vs)][i]
		smearFeed(v.feed)
		v.deg, v.sampled = -0x5a5a5a, true
	}
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
	return newTurnstileRunner().bindTo(st, rng, defaultL0Config(st.N()))
}

// AcquireTurnstileRunner is NewTurnstileRunner over a process-wide runner
// pool: the returned runner is rebound to st and rng with fresh accounting
// but keeps a released predecessor's grown scratch. A freelist sampler only
// survives the rebind if the sampler geometry is unchanged; otherwise the
// freelist is dropped and rounds rebuild it at the new shape.
func AcquireTurnstileRunner(st stream.Stream, rng *rand.Rand) *TurnstileRunner {
	return turnRunnerPool.Get().bindTo(st, rng, defaultL0Config(st.N()))
}

// bindTo rebinds the runner to st, rng and a sampler geometry with fresh
// accounting, keeping its scratch and — if the geometry is unchanged — its
// sampler freelist.
func (r *TurnstileRunner) bindTo(st stream.Stream, rng *rand.Rand, cfg sketch.L0Config) *TurnstileRunner {
	if r.l0cfg != cfg {
		r.freeSamplers = nil
	}
	r.st, r.l0cfg, r.paral = st, cfg, 0
	r.sampleWords = cfg.SpaceWords()
	r.bind(st.N(), rng)
	r.curBuffered, r.curBase = 0, 0
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
// it nets and fills the feeds, hands each to its samplers and empties them.
// With answers nil it is a mid-pass flush: each sampler applies its feed, which
// changes nothing an answer can see — the cells a sampler ends the pass with
// do not depend on how often or where the feed was flushed. Otherwise it is
// the pass's last flush: each sampler writes its query's answer from its
// cells and its feed, and its cells are left as they were.
func (r *TurnstileRunner) flushFeeds(answers []oracle.Answer) {
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
	// Sampler state is private and each answer slot has one writer, so
	// assignment cannot affect answers. ----
	tasks := r.samplers
	if len(tasks) > 0 {
		par.For(p, p, func(w int) {
			sc := &r.scratch[w]
			for _, t := range tasks[w*len(tasks)/p : (w+1)*len(tasks)/p] {
				feed := edgeFeed
				if t.vert >= 0 {
					feed = r.vs[t.vert].feed
				}
				if answers == nil {
					t.s.UpdateFeed(feed, sc)
					continue
				}
				switch key, ok := t.s.SampleFeed(feed, sc); {
				case !ok:
					answers[t.query] = oracle.Answer{OK: false}
				case t.vert < 0:
					answers[t.query] = oracle.Answer{OK: true, Edge: keyEdge(key, r.n)}
				default:
					answers[t.query] = oracle.Answer{OK: true, Count: int64(key)}
				}
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
	return replay(context.Background(), r, r.st, queries)
}

// RoundContext is Round with cancellation checked between the update batches
// of the private replay: when ctx is done the pass aborts with the context's
// error before the next batch is consumed.
func (r *TurnstileRunner) RoundContext(ctx context.Context, queries []oracle.Query) ([]oracle.Answer, error) {
	return replay(ctx, r, r.st, queries)
}

// BeginRound implements oracle.PassRunner: it admits the round's queries and
// arms its ℓ0-samplers, drawing the fingerprint base and then the sampler
// seeds in query order.
func (r *TurnstileRunner) BeginRound(queries []oracle.Query) error {
	if r.n > maxTurnstileVertices { // which is below maxVertices
		return fmt.Errorf("transform: %d vertices exceed the %d whose packed edge keys an ℓ0-sampler can recover (keys below 2^63)", r.n, int64(maxTurnstileVertices))
	}
	r.AbortRound() // a round left open has no one to answer to
	if err := r.admit(queries); err != nil {
		return err
	}
	r.curBuffered = 0
	r.vs = slices.Grow(r.vs[:0], r.verts.Len())[:r.verts.Len()]
	for i := range r.vs {
		r.vs[i] = turnVertex{feed: r.vs[i].feed[:0]} // the feed buffer an earlier round left here
	}
	r.curBase = sketch.RandomFieldBase(r.rng.Uint64())
	r.edgeFeed = r.edgeFeed[:0]
	for i, q := range queries {
		if q.Type != oracle.RandomEdge && q.Type != oracle.RandomNeighbor {
			continue
		}
		vert := int32(-1) // RandomEdge reads edgeFeed
		if q.Type == oracle.RandomNeighbor {
			vert = r.refs[i]
			r.vs[vert].sampled = true
		}
		r.samplers = append(r.samplers, roundSampler{s: r.newSampler(r.rng.Uint64(), r.curBase), query: int32(i), vert: vert})
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
	r.cur = nil
}

// ConsumeBatch implements oracle.PassRunner (the round's stage 1): counters
// are updated in place; sampler feeds are buffered, a block of feedBlock
// updates at a time, so each sampler can consume a whole block sequentially,
// keeping its cells cache-resident (processing thousands of samplers per
// incoming update would thrash the cache).
func (r *TurnstileRunner) ConsumeBatch(batch []stream.Update) error {
	for len(batch) > 0 {
		if r.curBuffered == feedBlock {
			r.flushFeeds(nil)
		}
		k := min(len(batch), feedBlock-r.curBuffered) // what fits the block
		if err := r.canon(batch[:k]); err != nil {
			return err
		}
		r.curBuffered += k
		r.process()
		batch = batch[k:]
	}
	return nil
}

// EndRound implements oracle.PassRunner: answers read off the round's state
// through the references BeginRound recorded — the counters directly, each
// sampler through the sampler stages over what is still buffered.
func (r *TurnstileRunner) EndRound() ([]oracle.Answer, error) {
	answers := r.answerBuf()
	for i, q := range r.cur {
		if q.Type == oracle.Degree {
			answers[i] = oracle.Answer{OK: true, Count: r.vs[r.refs[i]].deg}
		}
	}
	r.flushFeeds(answers)
	r.AbortRound() // the round is over: its samplers go back to the freelist
	return answers, nil
}
