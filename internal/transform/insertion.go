package transform

import (
	"cmp"
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

// InsertionRunner answers query rounds over an arbitrary-order
// insertion-only stream, one pass per round, realizing Theorem 9:
//
//	f1 (uniform edge)  — reservoir sampling, O(1) words per query;
//	f2 (degree)        — a counter per queried vertex;
//	f3 (i-th neighbor) — the same counter: the i-th neighbor is the far
//	                     endpoint of the update that brings it to i;
//	f4 (adjacency)     — a boolean per queried pair;
//
// so a k-round algorithm with q queries runs in k passes and O(q) words of
// emulation state (O(q log n) bits).
//
// The pass itself is parallel: per-query state is sharded across P workers
// (P = SetParallelism, default GOMAXPROCS) — vertex-keyed state by
// hash(vertex) mod P, adjacency flags by hash(packed edge key) mod P,
// reservoirs in contiguous slot blocks — and each update batch from the
// stream fans out to a persistent worker group, whose workers touch only
// their own shard's state. Every reservoir is a slot of one flat
// ReservoirBank with a private splitmix64 RNG seeded sequentially at setup,
// so answers are bit-identical at any P.
//
// All round scratch — the bank, the shards' key tables and flat state
// arrays, the per-query references, the batch buffers — is owned by the
// runner and reused across rounds; runners themselves recycle across engine
// generations through AcquireInsertionRunner / Release.
type InsertionRunner struct {
	st      stream.Stream
	rng     *rand.Rand
	paral   int
	rounds  int64
	queries int64
	space   int64

	// In-flight round state (BeginRound .. EndRound).
	inRound    bool
	curQueries []oracle.Query
	curP       int
	curM       int64

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	bank       sketch.ReservoirBank
	resQuery   []int      // bank slot -> query index, in query order
	refs       []queryRef // query index -> where its vertex or pair state lives
	shards     []*insShard
	grp        *par.Group // round-scoped worker group when curP > 1
	batchEdges []graph.Edge
	batchKeys  []uint64
	answers    []oracle.Answer // EndRound's result, the caller's until the next round
}

// InsertionRunner implements the session engine's round lifecycle.
var _ oracle.PassRunner = (*InsertionRunner)(nil)

// maxVertices bounds the vertex universe of every runner and index in this
// package: a packed edge key is u·n + v in a uint64, which is injective only
// while n ≤ 2³².
const maxVertices = 1 << 32

func checkUniverse(n int64) error {
	if n > maxVertices {
		return fmt.Errorf("transform: %d vertices exceed the %d a packed edge key can tell apart", n, int64(maxVertices))
	}
	return nil
}

// queryRef locates the state of one Degree, Neighbor or Adjacent query: the
// shard that owns its key and the key's dense index there. BeginRound
// records it, so EndRound reads answers without hashing anything again.
type queryRef struct {
	shard, idx int32
}

// vertexState is everything a shard keeps per queried vertex: the number of
// incident updates seen so far — the f2 answer — and the not yet fired part
// watches[next:end] of the vertex's f3 run.
type vertexState struct {
	count     int64
	next, end int32
}

// neighborWatch is one f3 (i-th neighbor) query: it fires, recording the far
// endpoint, on the update that raises its vertex's count to i.
type neighborWatch struct {
	i      int64
	result int64
	query  int32 // index of the query in the round
	found  bool
}

// insShard is the per-worker slice of a round's query state: two key tables
// filled at setup with exactly the keys the shard owns — so shard membership
// during the pass is table membership — and flat arrays indexed by their
// dense indices. A vertex's watches are one run of the watches array,
// ascending in i, so an incident update costs one increment plus the watches
// that fire on it, however many are still pending. Reservoir slots are
// assigned as one contiguous bank block per shard — which shard sweeps a
// slot never affects its answer, and the block keeps each worker's sweep on
// adjacent bank entries.
type insShard struct {
	bank         *sketch.ReservoirBank
	resLo, resHi int      // this shard's slot block, [resLo, resHi)
	verts        keyTable // queried vertex -> index into vs
	vs           []vertexState
	watches      []neighborWatch // one run per vertex, runs in vs order
	pairs        keyTable        // queried packed edge key -> index into seen
	seen         []bool

	// placeRun's scratch: the run being placed, and a position per i value.
	runCopy []neighborWatch
	runPos  []int32
}

func (s *insShard) reset() {
	s.bank = nil
	s.resLo, s.resHi = 0, 0
	s.verts.reset()
	s.vs = s.vs[:0]
	s.watches = s.watches[:0]
	s.pairs.reset()
	s.seen = s.seen[:0]
}

// vertex returns the dense index of queried vertex u, registering it with a
// zero count on first sight; pair does the same for a queried packed edge key.
func (s *insShard) vertex(u int64) int32  { return register(&s.verts, uint64(u), &s.vs) }
func (s *insShard) pair(key uint64) int32 { return register(&s.pairs, key, &s.seen) }

// register returns key's dense index in t, extending the state array that
// runs beside t by one zero element when the key is new.
func register[T any](t *keyTable, key uint64, state *[]T) int32 {
	k := t.insert(key)
	if int(k) == len(*state) {
		var zero T
		*state = append(*state, zero)
	}
	return k
}

// process consumes one update batch: edges[i] is the canonical edge of the
// i-th update and keys[i] its packed key.
func (s *insShard) process(edges []graph.Edge, keys []uint64) {
	s.bank.OfferKeysRange(s.resLo, s.resHi, keys)
	if len(s.vs) > 0 {
		for _, e := range edges {
			// Both endpoints are touched even for a self-loop, which thus
			// counts twice towards its vertex's degree and neighbor order.
			if v := s.verts.find(uint64(e.U)); v >= 0 {
				s.incident(v, e.V)
			}
			if v := s.verts.find(uint64(e.V)); v >= 0 {
				s.incident(v, e.U)
			}
		}
	}
	if len(s.seen) > 0 {
		for _, key := range keys {
			if k := s.pairs.find(key); k >= 0 {
				s.seen[k] = true
			}
		}
	}
}

// incident counts one update incident to vertex v and fires the watches
// waiting for exactly that count. Runs ascend in i and every i is at least
// 1, so the pending watches of v all lie above its count.
func (s *insShard) incident(v int32, other int64) {
	st := &s.vs[v]
	st.count++
	for st.next < st.end && s.watches[st.next].i == st.count {
		w := &s.watches[st.next]
		w.result, w.found = other, true
		st.next++
	}
}

// insRunnerPool recycles released runners — and with them the bank arrays,
// shard tables and state arrays, query references and batch buffers — across
// engine generations. BeginRound fully re-initializes every piece of scratch
// a round reads, so a recycled runner is observably identical to a fresh one
// (the pool hygiene suite dirties this scratch between rounds and requires
// bit-identical estimates; DESIGN.md §12).
var insRunnerPool = pool.New(
	func() *InsertionRunner { return &InsertionRunner{} },
	func(r *InsertionRunner) {},
	dirtyInsRunner,
)

func dirtyInsRunner(r *InsertionRunner) {
	r.bank.Dirty()
	pool.Dirty(r.resQuery, -0x5a5a5a)
	pool.Dirty(r.refs, queryRef{shard: 0x5a5a5a, idx: 0x5a5a5a})
	for _, sh := range r.shards {
		sh.verts.dirty()
		sh.pairs.dirty()
		pool.Dirty(sh.vs, vertexState{count: -0x5a5a5a, next: 0x5a5a5a, end: -0x5a5a5a})
		pool.Dirty(sh.watches, neighborWatch{i: 1, result: -0x5a5a5a, query: 0x5a5a5a, found: true})
		pool.Dirty(sh.seen, true)
		pool.Dirty(sh.runCopy, neighborWatch{i: 1, result: -0x5a5a5a, query: 0x5a5a5a, found: true})
		pool.Dirty(sh.runPos, 0x5a5a5a)
	}
	pool.Dirty(r.batchEdges, graph.Edge{U: -0x5a5a5a, V: -0x5a5a5a})
	pool.DirtyUint64(r.batchKeys)
	smearAnswers(r.answers)
}

// answerBuffer returns buf resized to hold one round's n answers, to be
// assigned in full. It is the runner's own buffer, handed out again round
// after round: the answers of a round are valid until the runner's next
// Round, BeginRound, ResumeRound or Release (oracle.Runner).
func answerBuffer(buf []oracle.Answer, n int) []oracle.Answer {
	return slices.Grow(buf[:0], n)[:n]
}

// expireAnswers is called where a round starts and the previous round's
// answers stop being valid. Under pool.DebugDirty it smears them with
// plausible-looking sentinels, so that a caller which reads answers late
// fails the pool-hygiene suite instead of passing for as long as the buffer
// happens not to be overwritten.
func expireAnswers(buf []oracle.Answer) {
	if pool.DebugMode() == pool.DebugDirty {
		smearAnswers(buf)
	}
}

func smearAnswers(buf []oracle.Answer) {
	pool.Dirty(buf, oracle.Answer{OK: true, Count: -0x5a5a5a, Edge: graph.Edge{U: -0x5a5a5a, V: -0x5a5a5a}, Yes: true})
}

// NewInsertionRunner wraps the stream. The stream must be insertion-only.
func NewInsertionRunner(st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	if err := checkInsertionStream(st); err != nil {
		return nil, err
	}
	return &InsertionRunner{st: st, rng: rng}, nil
}

func checkInsertionStream(st stream.Stream) error {
	if !st.InsertOnly() {
		return fmt.Errorf("transform: InsertionRunner requires an insertion-only stream")
	}
	return checkUniverse(st.N())
}

// AcquireInsertionRunner is NewInsertionRunner over a process-wide runner
// pool: the returned runner is rebound to st and rng with fresh accounting,
// but keeps a released predecessor's grown scratch, so steady-state
// admission stops paying per-generation setup. Callers release with
// Release; an unreleased runner is simply collected.
func AcquireInsertionRunner(st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	if err := checkInsertionStream(st); err != nil {
		return nil, err
	}
	r := insRunnerPool.Get()
	r.st, r.rng = st, rng
	r.paral = 0
	r.rounds, r.queries, r.space = 0, 0, 0
	r.inRound = false
	r.curQueries = nil
	r.curP, r.curM = 0, 0
	return r, nil
}

// Release aborts any in-flight round and returns the runner to the pool.
// The runner must not be used afterwards. Checkpoints taken from it remain
// valid: SnapshotRound deep-copies every piece of state it captures.
func (r *InsertionRunner) Release() {
	r.AbortRound()
	r.st, r.rng = nil, nil
	insRunnerPool.Put(r)
}

// SetParallelism bounds the number of pass workers. p <= 0 selects
// GOMAXPROCS, 1 forces the sequential path. Answers do not depend on p.
func (r *InsertionRunner) SetParallelism(p int) { r.paral = p }

// Model implements oracle.Runner.
func (r *InsertionRunner) Model() oracle.Model { return oracle.Augmented }

// Rounds implements oracle.Runner.
func (r *InsertionRunner) Rounds() int64 { return r.rounds }

// Queries implements oracle.Runner.
func (r *InsertionRunner) Queries() int64 { return r.queries }

// SpaceWords implements oracle.Runner.
func (r *InsertionRunner) SpaceWords() int64 { return r.space }

// NumVertices implements oracle.Runner.
func (r *InsertionRunner) NumVertices() int64 { return r.st.N() }

// shardOfVertex and shardOfKey give the deterministic state assignment; they
// only decide which worker owns a piece of state, never the answer itself.
func shardOfVertex(v int64, p int) int { return shardOf(0x5ee7, uint64(v), p) }
func shardOfKey(key uint64, p int) int { return shardOf(0xed6e, key, p) }

func shardOf(seed, key uint64, p int) int {
	if p == 1 {
		return 0 // one worker owns everything: nothing to hash
	}
	return int(sketch.Hash64(seed, key) % uint64(p))
}

func (r *InsertionRunner) ensureShards(p int) {
	if len(r.shards) != p {
		r.shards = make([]*insShard, p)
		for i := range r.shards {
			r.shards[i] = &insShard{}
		}
		return
	}
	for _, s := range r.shards {
		s.reset()
	}
}

// Round implements oracle.Runner: it answers the whole batch in one pass.
// It is BeginRound + one private replay + EndRound, so a standalone runner
// and a session-scheduled one answer identically.
func (r *InsertionRunner) Round(queries []oracle.Query) ([]oracle.Answer, error) {
	return r.RoundContext(context.Background(), queries)
}

// RoundContext is Round with cancellation checked between the update batches
// of the private replay: when ctx is done the pass aborts with the context's
// error before the next batch is consumed. Cancellation never changes
// answers — a round that completes is bit-identical to an uncancellable one.
func (r *InsertionRunner) RoundContext(ctx context.Context, queries []oracle.Query) ([]oracle.Answer, error) {
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

// BeginRound implements oracle.PassRunner: it registers the round's queries
// and shards the per-query state (sequentially, so reservoir seeds are drawn
// in query order regardless of the worker count).
func (r *InsertionRunner) BeginRound(queries []oracle.Query) error {
	if len(queries) > math.MaxInt32 {
		return fmt.Errorf("transform: %d queries in one round exceed the int32 query index", len(queries))
	}
	expireAnswers(r.answers)
	r.rounds++
	r.queries += int64(len(queries))
	r.inRound = true
	r.curQueries = queries
	r.curM = 0
	n := r.st.N()
	p := par.Workers(r.paral)
	r.curP = p
	r.ensureShards(p)

	// Pre-count the round's reservoirs so the bank can be laid out and
	// shard slot blocks assigned up front.
	nres := 0
	for _, q := range queries {
		if q.Type == oracle.RandomEdge {
			nres++
		}
	}
	r.bank.Reset(nres)
	r.resQuery = r.resQuery[:0]
	r.refs = slices.Grow(r.refs[:0], len(queries))[:len(queries)] // written for Degree, Neighbor, Adjacent

	watched := false
	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			r.space++
		case oracle.RandomEdge:
			// Each slot owns a private deterministic RNG: seeds are drawn
			// sequentially here, in query order, so the accept sequence is
			// independent of which worker sweeps the slot. A banked slot
			// draws the identical accept sequence as NewReservoirSeeded,
			// and SnapshotRound captures it as an ordinary cloneable
			// reservoir.
			r.bank.Seed(len(r.resQuery), r.rng.Uint64())
			r.resQuery = append(r.resQuery, i)
			r.space += 2
		case oracle.Degree:
			j := shardOfVertex(q.U, p)
			r.refs[i] = queryRef{int32(j), r.shards[j].vertex(q.U)}
			r.space++
		case oracle.Neighbor:
			if q.I < 1 {
				return fmt.Errorf("transform: Neighbor index %d < 1", q.I)
			}
			j := shardOfVertex(q.U, p)
			sh := r.shards[j]
			v := sh.vertex(q.U)
			sh.vs[v].end++ // the run's length, until layoutWatches places it
			r.refs[i] = queryRef{int32(j), v}
			watched = true
			r.space += 2
		case oracle.RandomNeighbor:
			return fmt.Errorf("transform: RandomNeighbor is a relaxed-model query; the insertion-only runner emulates the augmented model (use Neighbor)")
		case oracle.Adjacent:
			key := edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n)
			j := shardOfKey(key, p)
			r.refs[i] = queryRef{int32(j), r.shards[j].pair(key)}
			r.space++
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	if watched {
		r.layoutWatches(queries)
	}
	r.bindShards(nres, p)
	r.startGroup(p)
	return nil
}

// layoutWatches turns the per-vertex watch counts BeginRound left in
// vs[v].end into each shard's watch runs: a prefix sum places the runs, a
// second sweep over the queries fills them, and placeRun orders each run
// ascending in i. Watches with equal i fire on the same update with the same
// answer, so their order within the run is free.
func (r *InsertionRunner) layoutWatches(queries []oracle.Query) {
	for _, sh := range r.shards {
		total := int32(0)
		for v := range sh.vs {
			st := &sh.vs[v]
			st.next, st.end, total = total, total, total+st.end
		}
		sh.watches = slices.Grow(sh.watches[:0], int(total))[:total]
	}
	for i, q := range queries {
		if q.Type != oracle.Neighbor {
			continue
		}
		sh := r.shards[r.refs[i].shard]
		st := &sh.vs[r.refs[i].idx]
		sh.watches[st.end] = neighborWatch{i: q.I, query: int32(i)}
		st.end++
	}
	for _, sh := range r.shards {
		for _, st := range sh.vs {
			if st.end-st.next > 1 {
				sh.placeRun(sh.watches[st.next:st.end])
			}
		}
	}
}

// placeRun orders one vertex's watch run ascending in i. A run of 32 or more
// whose i values span no more than its length — thousands of watches on one
// vertex, none beyond its degree — is placed by counting: count per i, prefix
// sum, scatter. Anything else, and a short run as fast, is sorted by comparison.
func (s *insShard) placeRun(run []neighborWatch) {
	lo, hi := run[0].i, run[0].i
	for _, w := range run[1:] {
		lo, hi = min(lo, w.i), max(hi, w.i)
	}
	if len(run) < 32 || uint64(hi-lo) >= uint64(len(run)) {
		slices.SortFunc(run, func(a, b neighborWatch) int { return cmp.Compare(a.i, b.i) })
		return
	}
	s.runCopy = append(s.runCopy[:0], run...)
	pos := slices.Grow(s.runPos[:0], int(hi-lo)+1)[:hi-lo+1]
	s.runPos = pos
	clear(pos)
	for _, w := range run {
		pos[w.i-lo]++
	}
	at := int32(0)
	for k, c := range pos {
		pos[k], at = at, at+c
	}
	for _, w := range s.runCopy {
		run[pos[w.i-lo]] = w
		pos[w.i-lo]++
	}
}

// bindShards hands each shard its view of the round's reservoir bank: a
// contiguous slot block.
func (r *InsertionRunner) bindShards(nres, p int) {
	for j, sh := range r.shards {
		sh.bank = &r.bank
		sh.resLo = j * nres / p
		sh.resHi = (j + 1) * nres / p
	}
}

// startGroup arms the round's persistent worker group: one goroutine per
// shard for the whole round, instead of one per shard per batch.
func (r *InsertionRunner) startGroup(p int) {
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	if p > 1 {
		r.grp = par.NewGroup(p)
	}
}

// AbortRound discards an in-flight round after a mid-pass failure,
// releasing the round's worker group. It is a no-op outside a round.
// Accounting (Rounds, Queries, SpaceWords) keeps the aborted round's
// charges — the failed pass was still paid for.
func (r *InsertionRunner) AbortRound() {
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	r.curQueries = nil
	r.inRound = false
}

// ConsumeBatch implements oracle.PassRunner: each batch is canonicalized
// once, then fanned out to the round's worker group.
func (r *InsertionRunner) ConsumeBatch(batch []stream.Update) error {
	n := r.st.N()
	edges := r.batchEdges[:0]
	keys := r.batchKeys[:0]
	for _, u := range batch {
		if u.Op != stream.Insert {
			return fmt.Errorf("transform: deletion in insertion-only stream")
		}
		e := u.Edge.Canon()
		edges = append(edges, e)
		keys = append(keys, edgeKey(e, n))
	}
	r.batchEdges, r.batchKeys = edges, keys
	r.curM += int64(len(batch))
	if r.grp == nil {
		r.shards[0].process(edges, keys)
		return nil
	}
	shards := r.shards
	r.grp.Run(func(i int) { shards[i].process(edges, keys) })
	return nil
}

// EndRound implements oracle.PassRunner: the merge is sequential, in query
// order, so answer assembly never depends on the worker count. Every query
// assigns its answer — BeginRound refused the types that would not — so the
// buffer is not cleared first.
func (r *InsertionRunner) EndRound() ([]oracle.Answer, error) {
	queries := r.curQueries
	n := r.st.N()
	m := r.curM
	answers := answerBuffer(r.answers, len(queries))
	r.answers = answers
	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			answers[i] = oracle.Answer{OK: true, Count: m}
		case oracle.Degree:
			ref := r.refs[i]
			answers[i] = oracle.Answer{OK: true, Count: r.shards[ref.shard].vs[ref.idx].count}
		case oracle.Adjacent:
			ref := r.refs[i]
			answers[i] = oracle.Answer{OK: true, Yes: r.shards[ref.shard].seen[ref.idx]}
		}
	}
	for slot, qi := range r.resQuery {
		if key, ok := r.bank.Sample(slot); ok {
			answers[qi] = oracle.Answer{OK: true, Edge: keyEdge(key, n)}
		} else {
			answers[qi] = oracle.Answer{OK: false}
		}
	}
	for _, sh := range r.shards {
		for k := range sh.watches {
			w := &sh.watches[k]
			answers[w.query] = oracle.Answer{OK: w.found, Count: w.result}
		}
	}
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	r.curQueries = nil
	r.inRound = false
	return answers, nil
}

// edgeKey encodes a canonical edge as a single integer key in [0, n^2); the
// constructors bound n by maxVertices so that distinct edges get distinct
// keys.
func edgeKey(e graph.Edge, n int64) uint64 {
	c := e.Canon()
	return uint64(c.U)*uint64(n) + uint64(c.V)
}

// keyEdge decodes edgeKey.
func keyEdge(key uint64, n int64) graph.Edge {
	return graph.Edge{U: int64(key / uint64(n)), V: int64(key % uint64(n))}
}
