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
// The pass has one owner: the goroutine that calls ConsumeBatch touches all
// of the round's state, and a round starts no goroutine of its own. The
// round's query state is two key tables filled at setup — queried vertices
// and queried packed edge keys, so membership during the pass is table
// membership — and flat arrays indexed by their dense indices. A vertex's
// watches are one run of the watches array, ascending in i, so an incident
// update costs one increment plus the watches that fire on it, however many
// are still pending. Every reservoir is a slot of one flat ReservoirBank with
// a private splitmix64 RNG seeded in query order at setup.
//
// All round scratch — the bank, the key tables and flat state arrays, the
// per-query references, the batch buffers — is owned by the runner and
// reused across rounds; runners themselves recycle across engine generations
// through AcquireInsertionRunner / Release.
type InsertionRunner struct {
	st      stream.Stream
	rng     *rand.Rand
	rounds  int64
	queries int64
	space   int64

	// In-flight round state (BeginRound .. EndRound).
	curQueries []oracle.Query
	curM       int64

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	bank       sketch.ReservoirBank
	resQuery   []int    // bank slot -> query index, in query order
	refs       []int32  // query index -> dense index of its vertex or pair
	verts      keyTable // queried vertex -> index into vs
	vs         []vertexState
	watches    []neighborWatch // one run per vertex, runs in vs order
	pairs      keyTable        // queried packed edge key -> index into seen
	seen       []bool
	runCopy    []neighborWatch // placeRun's scratch: the run being placed,
	runPos     []int32         // and a position per i value
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

// vertexState is everything a round keeps per queried vertex: the number of
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

// vertex returns the dense index of queried vertex u, registering it with a
// zero count on first sight; pair does the same for a queried packed edge key.
func (r *InsertionRunner) vertex(u int64) int32  { return register(&r.verts, uint64(u), &r.vs) }
func (r *InsertionRunner) pair(key uint64) int32 { return register(&r.pairs, key, &r.seen) }

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
func (r *InsertionRunner) process(edges []graph.Edge, keys []uint64) {
	r.bank.OfferKeysRange(0, r.bank.Len(), keys)
	if len(r.vs) > 0 {
		for _, e := range edges {
			// Both endpoints are touched even for a self-loop, which thus
			// counts twice towards its vertex's degree and neighbor order.
			if v := r.verts.find(uint64(e.U)); v >= 0 {
				r.incident(v, e.V)
			}
			if v := r.verts.find(uint64(e.V)); v >= 0 {
				r.incident(v, e.U)
			}
		}
	}
	if len(r.seen) > 0 {
		for _, key := range keys {
			if k := r.pairs.find(key); k >= 0 {
				r.seen[k] = true
			}
		}
	}
}

// incident counts one update incident to vertex v and fires the watches
// waiting for exactly that count. Runs ascend in i and every i is at least
// 1, so the pending watches of v all lie above its count.
func (r *InsertionRunner) incident(v int32, other int64) {
	st := &r.vs[v]
	st.count++
	for st.next < st.end && r.watches[st.next].i == st.count {
		w := &r.watches[st.next]
		w.result, w.found = other, true
		st.next++
	}
}

// insRunnerPool recycles released runners — and with them the bank arrays,
// key tables and state arrays, query references and batch buffers — across
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
	pool.Dirty(r.refs, 0x5a5a5a)
	r.verts.dirty()
	r.pairs.dirty()
	pool.Dirty(r.vs, vertexState{count: -0x5a5a5a, next: 0x5a5a5a, end: -0x5a5a5a})
	pool.Dirty(r.watches, neighborWatch{i: 1, result: -0x5a5a5a, query: 0x5a5a5a, found: true})
	pool.Dirty(r.seen, true)
	pool.Dirty(r.runCopy, neighborWatch{i: 1, result: -0x5a5a5a, query: 0x5a5a5a, found: true})
	pool.Dirty(r.runPos, 0x5a5a5a)
	pool.Dirty(r.batchEdges, graph.Edge{U: -0x5a5a5a, V: -0x5a5a5a})
	pool.DirtyUint64(r.batchKeys)
	smearAnswers(r.answers)
}

// answerBuffer returns buf resized to hold one round's n answers, to be
// assigned in full. It is the runner's own buffer, handed out again round
// after round: the answers of a round are valid until the runner's next
// Round, BeginRound or Release (oracle.Runner).
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
	r.rounds, r.queries, r.space = 0, 0, 0
	r.curQueries = nil
	r.curM = 0
	return r, nil
}

// Release aborts any in-flight round and returns the runner to the pool.
// The runner must not be used afterwards.
func (r *InsertionRunner) Release() {
	r.AbortRound()
	r.st, r.rng = nil, nil
	insRunnerPool.Put(r)
}

// SetParallelism does nothing: an insertion pass has one worker; kept only
// because the frozen benchmark/ calls it — delete with
// transform.shard2_ratio at the re-baseline.
func (r *InsertionRunner) SetParallelism(int) {}

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
// and lays out their state, drawing reservoir seeds in query order.
func (r *InsertionRunner) BeginRound(queries []oracle.Query) error {
	if len(queries) > math.MaxInt32 {
		return fmt.Errorf("transform: %d queries in one round exceed the int32 query index", len(queries))
	}
	expireAnswers(r.answers)
	r.rounds++
	r.queries += int64(len(queries))
	r.curQueries = queries
	r.curM = 0
	n := r.st.N()
	r.verts.reset()
	r.vs = r.vs[:0]
	r.watches = r.watches[:0]
	r.pairs.reset()
	r.seen = r.seen[:0]

	// Pre-count the round's reservoirs so the bank can be laid out up front.
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
			// Each slot owns a private deterministic RNG, seeded here in
			// query order, and draws the identical accept sequence as
			// NewReservoirSeeded — which is what IndexedRunner answers the
			// same query with.
			r.bank.Seed(len(r.resQuery), r.rng.Uint64())
			r.resQuery = append(r.resQuery, i)
			r.space += 2
		case oracle.Degree:
			r.refs[i] = r.vertex(q.U)
			r.space++
		case oracle.Neighbor:
			if q.I < 1 {
				return fmt.Errorf("transform: Neighbor index %d < 1", q.I)
			}
			v := r.vertex(q.U)
			r.vs[v].end++ // the run's length, until layoutWatches places it
			r.refs[i] = v
			watched = true
			r.space += 2
		case oracle.RandomNeighbor:
			return fmt.Errorf("transform: RandomNeighbor is a relaxed-model query; the insertion-only runner emulates the augmented model (use Neighbor)")
		case oracle.Adjacent:
			key := edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n)
			r.refs[i] = r.pair(key)
			r.space++
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	if watched {
		r.layoutWatches(queries)
	}
	return nil
}

// layoutWatches turns the per-vertex watch counts BeginRound left in
// vs[v].end into the round's watch runs: a prefix sum places the runs, a
// second sweep over the queries fills them, and placeRun orders each run
// ascending in i. Watches with equal i fire on the same update with the same
// answer, so their order within the run is free.
func (r *InsertionRunner) layoutWatches(queries []oracle.Query) {
	total := int32(0)
	for v := range r.vs {
		st := &r.vs[v]
		st.next, st.end, total = total, total, total+st.end
	}
	r.watches = slices.Grow(r.watches[:0], int(total))[:total]
	for i, q := range queries {
		if q.Type != oracle.Neighbor {
			continue
		}
		st := &r.vs[r.refs[i]]
		r.watches[st.end] = neighborWatch{i: q.I, query: int32(i)}
		st.end++
	}
	for _, st := range r.vs {
		if st.end-st.next > 1 {
			r.placeRun(r.watches[st.next:st.end])
		}
	}
}

// placeRun orders one vertex's watch run ascending in i. A run of 32 or more
// whose i values span no more than its length — thousands of watches on one
// vertex, none beyond its degree — is placed by counting: count per i, prefix
// sum, scatter. Anything else, and a short run as fast, is sorted by comparison.
func (r *InsertionRunner) placeRun(run []neighborWatch) {
	lo, hi := run[0].i, run[0].i
	for _, w := range run[1:] {
		lo, hi = min(lo, w.i), max(hi, w.i)
	}
	if len(run) < 32 || uint64(hi-lo) >= uint64(len(run)) {
		slices.SortFunc(run, func(a, b neighborWatch) int { return cmp.Compare(a.i, b.i) })
		return
	}
	r.runCopy = append(r.runCopy[:0], run...)
	pos := slices.Grow(r.runPos[:0], int(hi-lo)+1)[:hi-lo+1]
	r.runPos = pos
	clear(pos)
	for _, w := range run {
		pos[w.i-lo]++
	}
	at := int32(0)
	for k, c := range pos {
		pos[k], at = at, at+c
	}
	for _, w := range r.runCopy {
		run[pos[w.i-lo]] = w
		pos[w.i-lo]++
	}
}

// AbortRound discards an in-flight round after a mid-pass failure. It is a
// no-op outside a round. Accounting (Rounds, Queries, SpaceWords) keeps the
// aborted round's charges — the failed pass was still paid for.
func (r *InsertionRunner) AbortRound() { r.curQueries = nil }

// ConsumeBatch implements oracle.PassRunner: each batch is canonicalized
// once, then offered to the round's query state.
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
	r.process(edges, keys)
	return nil
}

// EndRound implements oracle.PassRunner: answers are read off the round's
// state through the references BeginRound recorded, so nothing is hashed
// again. Every query assigns its answer — BeginRound refused the types that
// would not — so the buffer is not cleared first.
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
			answers[i] = oracle.Answer{OK: true, Count: r.vs[r.refs[i]].count}
		case oracle.Adjacent:
			answers[i] = oracle.Answer{OK: true, Yes: r.seen[r.refs[i]]}
		}
	}
	for slot, qi := range r.resQuery {
		if key, ok := r.bank.Sample(slot); ok {
			answers[qi] = oracle.Answer{OK: true, Edge: keyEdge(key, n)}
		} else {
			answers[qi] = oracle.Answer{OK: false}
		}
	}
	for k := range r.watches {
		w := &r.watches[k]
		answers[w.query] = oracle.Answer{OK: w.found, Count: w.result}
	}
	r.curQueries = nil
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
