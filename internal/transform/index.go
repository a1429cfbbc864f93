package transform

import (
	"fmt"
	"math/rand"
	"sort"

	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

// PrefixIndex is an incrementally grown, position-stamped index over an
// insertion-only stream prefix: the materialized key log, per-vertex
// incidence lists and first-seen positions of every update consumed so far.
// Because insertion-only state is append-only, the index at extent E can
// answer queries pinned at ANY version v <= E — a degree at v is the count
// of incidence entries with position < v, the i-th neighbor at v is the
// (i-1)-th entry if it arrived before v, and so on. One index per stream
// lane therefore serves every watch event without replaying the prefix:
// each event extends the index by the Δ new updates (via
// View.ForEachBatchFrom) and evaluates at its pinned version (DESIGN.md
// §10).
//
// The index is not safe for concurrent mutation; callers serialize Extend
// against evaluation (the watch scheduler's checkpoint cache holds one
// entry lock across both).
type PrefixIndex struct {
	n     int64
	keys  []uint64             // edgeKey per update, in stream order
	nbr   map[int64][]nbrEntry // vertex -> incident updates, position-ascending
	first map[uint64]int64     // canonical edge key -> first position seen
}

// nbrEntry is one incidence-list entry: the update's stream position and
// the far endpoint.
type nbrEntry struct {
	pos   int64
	other int64
}

// NewPrefixIndex returns an empty index over a vertex universe of size n,
// which must not exceed what a packed edge key can address (maxVertices).
func NewPrefixIndex(n int64) (*PrefixIndex, error) {
	if err := checkUniverse(n); err != nil {
		return nil, err
	}
	return &PrefixIndex{
		n:     n,
		nbr:   make(map[int64][]nbrEntry),
		first: make(map[uint64]int64),
	}, nil
}

// Extent returns the number of updates indexed so far.
func (ix *PrefixIndex) Extent() int64 { return int64(len(ix.keys)) }

// N returns the vertex-universe size the index was built over.
func (ix *PrefixIndex) N() int64 { return ix.n }

// Bytes approximates the index's resident size, for cache accounting:
// 8 bytes per key-log entry, two 16-byte incidence entries per update plus
// map overhead, and a first-seen map entry per distinct edge.
func (ix *PrefixIndex) Bytes() int64 {
	return int64(len(ix.keys))*(8+2*16+8) + int64(len(ix.first))*48 + int64(len(ix.nbr))*48
}

// Extend consumes one update batch, exactly as InsertionRunner.ConsumeBatch
// canonicalizes it. Deletions are rejected: the index's "state at v is a
// prefix of state at v+Δ" property only holds insertion-only.
func (ix *PrefixIndex) Extend(batch []stream.Update) error {
	for _, u := range batch {
		if u.Op != stream.Insert {
			return fmt.Errorf("transform: deletion in insertion-only stream")
		}
		e := u.Edge.Canon()
		key := edgeKey(e, ix.n)
		pos := int64(len(ix.keys))
		// Both incidence entries are appended even for a self-loop,
		// mirroring the streaming pass (InsertionRunner.process touches U
		// then V unconditionally), so degrees and neighbor order match.
		ix.keys = append(ix.keys, key)
		ix.nbr[e.U] = append(ix.nbr[e.U], nbrEntry{pos: pos, other: e.V})
		ix.nbr[e.V] = append(ix.nbr[e.V], nbrEntry{pos: pos, other: e.U})
		if _, ok := ix.first[key]; !ok {
			ix.first[key] = pos
		}
	}
	return nil
}

// degreeAt returns the number of updates incident to u with position < v:
// incidence lists are position-ascending, so it is a binary search.
func (ix *PrefixIndex) degreeAt(u, v int64) int64 {
	ws := ix.nbr[u]
	return int64(sort.Search(len(ws), func(i int) bool { return ws[i].pos >= v }))
}

// IndexedRunner answers query rounds at a pinned version v over a
// PrefixIndex whose extent covers v, without replaying the stream. It is
// answer- and accounting-bit-identical to an InsertionRunner over the same
// prefix with the same RNG: reservoir seeds are drawn in query order from
// the same generator, and the skip-sampling reservoir consumes the
// materialized key log in O(accepts) = O(log v) expected time per
// RandomEdge — this is what makes a standing query's event cost O(Δ)
// instead of O(v).
type IndexedRunner struct {
	ix      *PrefixIndex
	v       int64
	rng     *rand.Rand
	rounds  int64
	queries int64
	space   int64
	scratch *sketch.Reservoir // reused across RandomEdge answers, re-armed by Reset
	answers []oracle.Answer   // Round's result, the caller's until the next round
}

// IndexedRunner answers rounds directly; it has no pass lifecycle.
var _ oracle.Runner = (*IndexedRunner)(nil)

// NewIndexedRunner pins a runner at version v over ix. v must not exceed
// the index's extent.
func NewIndexedRunner(ix *PrefixIndex, v int64, rng *rand.Rand) (*IndexedRunner, error) {
	if v < 0 || v > ix.Extent() {
		return nil, fmt.Errorf("transform: IndexedRunner version %d out of indexed range [0,%d]", v, ix.Extent())
	}
	return &IndexedRunner{ix: ix, v: v, rng: rng}, nil
}

// Model implements oracle.Runner.
func (r *IndexedRunner) Model() oracle.Model { return oracle.Augmented }

// Rounds implements oracle.Runner.
func (r *IndexedRunner) Rounds() int64 { return r.rounds }

// Queries implements oracle.Runner.
func (r *IndexedRunner) Queries() int64 { return r.queries }

// SpaceWords implements oracle.Runner. It reports the space the equivalent
// streaming pass would have used, so results carry the same budget
// accounting whichever path served them.
func (r *IndexedRunner) SpaceWords() int64 { return r.space }

// NumVertices implements oracle.Runner.
func (r *IndexedRunner) NumVertices() int64 { return r.ix.n }

// Round implements oracle.Runner. Queries are answered in order; the only
// RNG consumer is RandomEdge, which draws its reservoir seed exactly where
// InsertionRunner.BeginRound would, so answer sequences are bit-identical.
func (r *IndexedRunner) Round(queries []oracle.Query) ([]oracle.Answer, error) {
	r.rounds++
	r.queries += int64(len(queries))
	v := r.v
	expireAnswers(r.answers)
	answers := answerBuffer(r.answers, len(queries))
	r.answers = answers
	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			answers[i] = oracle.Answer{OK: true, Count: v}
			r.space++
		case oracle.RandomEdge:
			// One scratch reservoir serves every RandomEdge answer: Reset
			// re-arms it bit-identically to NewReservoirSeeded with the
			// same draw, so a hot watch loop stops allocating reservoirs.
			seed := r.rng.Uint64()
			if r.scratch == nil {
				r.scratch = sketch.NewReservoirSeeded(seed)
			} else {
				r.scratch.Reset(seed)
			}
			rs := r.scratch
			rs.OfferKeys(r.ix.keys[:v])
			if key, ok := rs.Sample(); ok {
				answers[i] = oracle.Answer{OK: true, Edge: keyEdge(key, r.ix.n)}
			} else {
				answers[i] = oracle.Answer{OK: false}
			}
			r.space += 2
		case oracle.Degree:
			answers[i] = oracle.Answer{OK: true, Count: r.ix.degreeAt(q.U, v)}
			r.space++
		case oracle.Neighbor:
			if q.I < 1 {
				return nil, fmt.Errorf("transform: Neighbor index %d < 1", q.I)
			}
			if ws := r.ix.nbr[q.U]; q.I <= r.ix.degreeAt(q.U, v) {
				answers[i] = oracle.Answer{OK: true, Count: ws[q.I-1].other}
			} else {
				answers[i] = oracle.Answer{OK: false}
			}
			r.space += 2
		case oracle.RandomNeighbor:
			return nil, fmt.Errorf("transform: RandomNeighbor is a relaxed-model query; the insertion-only runner emulates the augmented model (use Neighbor)")
		case oracle.Adjacent:
			pos, ok := r.ix.first[edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), r.ix.n)]
			answers[i] = oracle.Answer{OK: true, Yes: ok && pos < v}
			r.space++
		default:
			return nil, fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	return answers, nil
}
