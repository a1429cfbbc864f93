package transform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"streamcount/internal/graph"
	"streamcount/internal/keytab"
	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/stream"
)

// round is the front end the three runners share: what a round of queries
// is charged, and where each query's state lives, do not depend on how the
// model answers it. It admits a round's queries — refusing what the model
// cannot answer and charging each admitted query its words — and, for the
// streaming runners, registers every queried vertex and packed edge key in
// the verts and pairs key tables, recording per query its dense index in
// refs. It canonicalizes each update batch into packed edge keys
// (graph.EdgeKey) and signed deltas, keeps the edge count and each queried
// pair's multiplicity, and owns the answer buffer and the
// Rounds/Queries/SpaceWords accounting.
//
// The runners embed it and keep only what their model answers from:
// InsertionRunner a reservoir bank and watch runs, TurnstileRunner
// ℓ0-samplers and their feeds, IndexedRunner a PrefixIndex. Accounting and
// refusals are therefore the same by construction, which is what lets an
// IndexedRunner stand in for an InsertionRunner bit for bit.
type round struct {
	n           int64 // vertex universe
	rng         *rand.Rand
	model       oracle.Model
	sampleWords int64 // words charged per RandomEdge, Neighbor or RandomNeighbor query
	keyed       bool  // register queried vertices and pairs (the streaming runners)
	rounds      int64
	queries     int64
	space       int64

	// In-flight round state (admit .. EndRound).
	cur   []oracle.Query
	kinds [oracle.Adjacent + 1]int // admitted queries per type; Adjacent is the last type
	m     int64                    // net edge count of the updates consumed so far

	// Scratch reused across rounds (and, via the runner pools, across
	// engine generations).
	refs    []int32      // query index -> dense index of its vertex or pair
	verts   keytab.Table // queried vertex -> dense index
	pairs   keytab.Table // queried packed edge key -> index into mult
	mult    []int64      // signed multiplicity of each queried pair
	keys    []uint64     // the batch's packed edge keys
	deltas  []int64
	answers []oracle.Answer // the last round's answers, the caller's until the next round
}

// maxVertices bounds the vertex universe of every runner and index in this
// package: a packed edge key holds each endpoint in 32 bits.
const maxVertices = graph.MaxVertices

func checkUniverse(n int64) error {
	if n > maxVertices {
		return fmt.Errorf("transform: %d vertices exceed the %d a packed edge key can tell apart", n, int64(maxVertices))
	}
	return nil
}

var errDeletion = errors.New("transform: deletion in insertion-only stream")

// bind points the front end at a universe of n vertices and at rng, with
// fresh accounting and no round in flight; the scratch is kept.
func (r *round) bind(n int64, rng *rand.Rand) {
	r.n, r.rng = n, rng
	r.rounds, r.queries, r.space = 0, 0, 0
	r.cur, r.m = nil, 0
}

// Model implements oracle.Runner.
func (r *round) Model() oracle.Model { return r.model }

// Rounds implements oracle.Runner.
func (r *round) Rounds() int64 { return r.rounds }

// Queries implements oracle.Runner.
func (r *round) Queries() int64 { return r.queries }

// SpaceWords implements oracle.Runner: the words the round's emulation state
// takes in a streaming pass, whichever runner served it.
func (r *round) SpaceWords() int64 { return r.space }

// admit starts a round: the previous round's answers expire, the round and
// its queries are counted, and each query is charged its words and — in a
// keyed round — registered, in query order. A query the model cannot answer
// fails the round; it and the queries after it are charged nothing.
func (r *round) admit(queries []oracle.Query) error {
	if len(queries) > math.MaxInt32 {
		return fmt.Errorf("transform: %d queries in one round exceed the int32 query index", len(queries))
	}
	if pool.DebugMode() == pool.DebugDirty {
		smearAnswers(r.answers) // a caller that reads them late fails the pool-hygiene suite
	}
	r.rounds++
	r.queries += int64(len(queries))
	r.cur, r.m, r.kinds = queries, 0, [oracle.Adjacent + 1]int{}
	if r.keyed {
		r.verts.Reset()
		r.pairs.Reset()
		r.refs = slices.Grow(r.refs[:0], len(queries))[:len(queries)] // written for vertex and pair queries
	}
	for i, q := range queries {
		words := int64(1)
		switch q.Type {
		case oracle.CountEdges:
		case oracle.RandomEdge:
			words = r.sampleWords
		case oracle.Neighbor, oracle.RandomNeighbor:
			if err := r.admitNeighbor(q); err != nil {
				return err
			}
			words = r.sampleWords
			fallthrough
		case oracle.Degree:
			if r.keyed {
				r.refs[i] = r.verts.Insert(uint64(q.U))
			}
		case oracle.Adjacent:
			if r.keyed {
				r.refs[i] = r.pairs.Insert(graph.EdgeKey(q.U, q.V))
			}
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
		r.kinds[q.Type]++
		r.space += words
	}
	r.mult = zeroed(r.mult, r.pairs.Len())
	return nil
}

// admitNeighbor refuses the neighbor query of the other model, and an i-th
// neighbor query with i < 1.
func (r *round) admitNeighbor(q oracle.Query) error {
	switch {
	case q.Type == oracle.Neighbor && r.model != oracle.Augmented:
		return fmt.Errorf("transform: Neighbor is an augmented-model query; the turnstile runner emulates the relaxed model (use RandomNeighbor)")
	case q.Type == oracle.RandomNeighbor && r.model != oracle.Relaxed:
		return fmt.Errorf("transform: RandomNeighbor is a relaxed-model query; the insertion-only runner emulates the augmented model (use Neighbor)")
	case q.Type == oracle.Neighbor && q.I < 1:
		return fmt.Errorf("transform: Neighbor index %d < 1", q.I)
	}
	return nil
}

// canon canonicalizes one update batch into keys[i], the packed key of the
// i-th update's edge, and moves m and the queried pairs' multiplicities. The batch is read by model, chosen once per batch:
// an augmented round refuses a deletion before it reads anything else and
// counts every update as +1, a relaxed one fills deltas[i] with the
// update's sign.
func (r *round) canon(batch []stream.Update) error {
	if r.model == oracle.Augmented {
		for _, u := range batch {
			if u.Op != stream.Insert {
				return errDeletion
			}
		}
		r.m += int64(len(batch))
	} else {
		r.deltas = slices.Grow(r.deltas[:0], len(batch))[:len(batch)]
		for i, u := range batch {
			r.deltas[i] = 1
			if u.Op == stream.Delete {
				r.deltas[i] = -1
			}
			r.m += r.deltas[i]
		}
	}
	r.keys = slices.Grow(r.keys[:0], len(batch))[:len(batch)]
	for i, u := range batch {
		r.keys[i] = graph.EdgeKey(u.Edge.U, u.Edge.V)
	}
	if len(r.mult) > 0 {
		for i, key := range r.keys {
			if k := r.pairs.Find(key); k >= 0 {
				if r.model == oracle.Augmented {
					r.mult[k]++
				} else {
					r.mult[k] += r.deltas[i]
				}
			}
		}
	}
	return nil
}

// answerBuf returns the answer buffer resized to the round's queries, with
// the answers the front end holds assigned: CountEdges, and in a keyed round
// Adjacent. The runner assigns every other one, so the buffer is not cleared
// first. It is handed out again round after round: a round's answers are
// valid until the runner's next round or release (oracle.Runner).
func (r *round) answerBuf() []oracle.Answer {
	answers := slices.Grow(r.answers[:0], len(r.cur))[:len(r.cur)]
	r.answers = answers
	for i, q := range r.cur {
		switch {
		case q.Type == oracle.CountEdges:
			answers[i] = oracle.Answer{OK: true, Count: r.m}
		case q.Type == oracle.Adjacent && r.keyed:
			answers[i] = oracle.Answer{OK: true, Yes: r.mult[r.refs[i]] > 0}
		}
	}
	return answers
}

// dirty smears the front end's scratch with sentinels (DESIGN.md §12).
func (r *round) dirty() {
	pool.Dirty(r.refs, 0x5a5a5a)
	r.verts.Dirty()
	r.pairs.Dirty()
	pool.DirtyUint64(r.keys)
	pool.DirtyInt64(r.deltas)
	pool.DirtyInt64(r.mult)
	smearAnswers(r.answers)
}

func smearAnswers(buf []oracle.Answer) {
	pool.Dirty(buf, oracle.Answer{OK: true, Count: -0x5a5a5a, Edge: graph.Edge{U: -0x5a5a5a, V: -0x5a5a5a}, Yes: true})
}

// zeroed returns s at length n with every element zero, reusing its
// capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// passRunner is a streaming runner: its rounds are passes.
type passRunner interface {
	oracle.PassRunner
	AbortRound()
}

// replay is Round and RoundContext of both streaming runners: BeginRound,
// one private replay of st with ctx checked between update batches, then
// EndRound, so a standalone runner and a session-scheduled one answer
// identically. A failed round is aborted. Cancellation never changes
// answers — a round that completes is bit-identical to an uncancellable one.
func replay(ctx context.Context, r passRunner, st stream.Stream, queries []oracle.Query) ([]oracle.Answer, error) {
	if err := r.BeginRound(queries); err != nil {
		r.AbortRound()
		return nil, err
	}
	err := st.ForEachBatch(func(batch []stream.Update) error {
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

// edgeKey is the dense index u·n + v of canonical edge (u, v), in [0, n²):
// the key of the turnstile edge feed, whose ℓ0-samplers sum keys in an int64,
// and of the WATCHIDX spill format. Everywhere else an edge is its
// graph.EdgeKey.
func edgeKey(e graph.Edge, n int64) uint64 {
	c := e.Canon()
	return uint64(c.U)*uint64(n) + uint64(c.V)
}

// keyEdge decodes edgeKey.
func keyEdge(key uint64, n int64) graph.Edge {
	return graph.Edge{U: int64(key / uint64(n)), V: int64(key % uint64(n))}
}
