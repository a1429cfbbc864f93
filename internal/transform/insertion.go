package transform

import (
	"cmp"
	"context"
	"fmt"
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
//	f4 (adjacency)     — a multiplicity per queried pair, in the front end;
//
// so a k-round algorithm with q queries runs in k passes and O(q) words of
// emulation state (O(q log n) bits).
//
// The pass has one owner: the goroutine that calls ConsumeBatch touches all
// of the round's state, and a round starts no goroutine of its own. The
// round's query state is two key tables filled at setup — queried vertices
// and queried edges' graph.EdgeKey, so membership during the pass is table
// membership — and flat arrays indexed by their dense indices. A vertex's
// watches are one run of the watches array, ascending in i, so an incident
// update costs one increment plus the watches that fire on it, however many
// are still pending. Every reservoir is a slot of one flat ReservoirBank,
// holding an update's edge key, with a private splitmix64 RNG seeded in
// query order at setup.
//
// The round front end (key tables, references, batch canonicalization,
// answers, accounting) and all of this scratch are owned by the runner and
// reused across rounds; runners themselves recycle across engine generations
// through AcquireInsertionRunner / Release.
type InsertionRunner struct {
	round
	st stream.Stream

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	bank     sketch.ReservoirBank
	resQuery []int           // bank slot -> query index, in query order
	vs       []vertexState   // per queried vertex, beside verts
	watches  []neighborWatch // one run per vertex, runs in vs order
	runCopy  []neighborWatch // placeRun's scratch: the run being placed,
	runPos   []int32         // and a position per i value
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

// ConsumeBatch implements oracle.PassRunner: the batch the front end
// canonicalized is offered to the reservoirs and the queried vertices.
func (r *InsertionRunner) ConsumeBatch(batch []stream.Update) error {
	if err := r.canon(batch); err != nil {
		return err
	}
	r.bank.OfferKeysRange(0, r.bank.Len(), r.keys)
	if len(r.vs) > 0 {
		for _, key := range r.keys {
			// Both endpoints are touched even for a self-loop, which thus
			// counts twice towards its vertex's degree and neighbor order.
			e := graph.KeyEdge(key)
			if v := r.verts.Find(uint64(e.U)); v >= 0 {
				r.incident(v, e.V)
			}
			if v := r.verts.Find(uint64(e.V)); v >= 0 {
				r.incident(v, e.U)
			}
		}
	}
	return nil
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
var insRunnerPool = pool.New(newInsertionRunner, func(*InsertionRunner) {}, dirtyInsRunner)

func newInsertionRunner() *InsertionRunner {
	return &InsertionRunner{round: round{model: oracle.Augmented, sampleWords: 2, keyed: true}}
}

func dirtyInsRunner(r *InsertionRunner) {
	r.round.dirty()
	r.bank.Dirty()
	pool.Dirty(r.resQuery, -0x5a5a5a)
	pool.Dirty(r.vs, vertexState{count: -0x5a5a5a, next: 0x5a5a5a, end: -0x5a5a5a})
	pool.Dirty(r.watches, neighborWatch{i: 1, result: -0x5a5a5a, query: 0x5a5a5a, found: true})
	pool.Dirty(r.runCopy, neighborWatch{i: 1, result: -0x5a5a5a, query: 0x5a5a5a, found: true})
	pool.Dirty(r.runPos, 0x5a5a5a)
}

// NewInsertionRunner wraps the stream. The stream must be insertion-only.
func NewInsertionRunner(st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	return bindInsertion(newInsertionRunner, st, rng)
}

// bindInsertion checks st and binds a runner from get to it.
func bindInsertion(get func() *InsertionRunner, st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	if !st.InsertOnly() {
		return nil, fmt.Errorf("transform: InsertionRunner requires an insertion-only stream")
	}
	if err := checkUniverse(st.N()); err != nil {
		return nil, err
	}
	r := get()
	r.st = st
	r.bind(st.N(), rng)
	return r, nil
}

// AcquireInsertionRunner is NewInsertionRunner over a process-wide runner
// pool: the returned runner is rebound to st and rng with fresh accounting,
// but keeps a released predecessor's grown scratch, so steady-state
// admission stops paying per-generation setup. Callers release with
// Release; an unreleased runner is simply collected.
func AcquireInsertionRunner(st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	return bindInsertion(insRunnerPool.Get, st, rng)
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

// Round implements oracle.Runner: it answers the whole batch in one pass.
// It is BeginRound + one private replay + EndRound, so a standalone runner
// and a session-scheduled one answer identically.
func (r *InsertionRunner) Round(queries []oracle.Query) ([]oracle.Answer, error) {
	return replay(context.Background(), r, r.st, queries)
}

// RoundContext is Round with cancellation checked between the update batches
// of the private replay: when ctx is done the pass aborts with the context's
// error before the next batch is consumed.
func (r *InsertionRunner) RoundContext(ctx context.Context, queries []oracle.Query) ([]oracle.Answer, error) {
	return replay(ctx, r, r.st, queries)
}

// BeginRound implements oracle.PassRunner: it admits the round's queries and
// lays out their state, drawing reservoir seeds in query order.
func (r *InsertionRunner) BeginRound(queries []oracle.Query) error {
	if err := r.admit(queries); err != nil {
		return err
	}
	r.vs = zeroed(r.vs, r.verts.Len())
	r.watches = r.watches[:0]
	r.bank.Reset(r.kinds[oracle.RandomEdge])
	r.resQuery = r.resQuery[:0]
	for i, q := range queries {
		switch q.Type {
		case oracle.RandomEdge:
			// Each slot owns a private deterministic RNG, seeded here in
			// query order, and draws the identical accept sequence as
			// NewReservoirSeeded — which is what IndexedRunner answers the
			// same query with.
			r.bank.Seed(len(r.resQuery), r.rng.Uint64())
			r.resQuery = append(r.resQuery, i)
		case oracle.Neighbor:
			r.vs[r.refs[i]].end++ // the run's length, until layoutWatches places it
		}
	}
	if r.kinds[oracle.Neighbor] > 0 {
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
func (r *InsertionRunner) AbortRound() { r.cur = nil }

// EndRound implements oracle.PassRunner: answers are read off the round's
// state through the references BeginRound recorded, so nothing is hashed
// again.
func (r *InsertionRunner) EndRound() ([]oracle.Answer, error) {
	answers := r.answerBuf()
	for i, q := range r.cur {
		if q.Type == oracle.Degree {
			answers[i] = oracle.Answer{OK: true, Count: r.vs[r.refs[i]].count}
		}
	}
	for slot, qi := range r.resQuery {
		if key, ok := r.bank.Sample(slot); ok {
			answers[qi] = oracle.Answer{OK: true, Edge: graph.KeyEdge(key)}
		} else {
			answers[qi] = oracle.Answer{OK: false}
		}
	}
	for k := range r.watches {
		w := &r.watches[k]
		answers[w.query] = oracle.Answer{OK: w.found, Count: w.result}
	}
	r.cur = nil
	return answers, nil
}
