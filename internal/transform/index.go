package transform

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"unsafe"

	"streamcount/internal/graph"
	"streamcount/internal/keytab"
	"streamcount/internal/oracle"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

// PrefixIndex is an incrementally grown, position-stamped index over an
// insertion-only stream prefix: the materialized key log, per-vertex
// incidence lists and first-seen positions of every update consumed so far.
// Because insertion-only state is append-only, the index at extent E can
// answer queries pinned at ANY version v <= E — a degree at v is the count
// of incidence positions below v, the i-th neighbor at v is the far
// endpoint of the key logged at the i-th of them, and so on. One index per stream
// lane therefore serves every watch event without replaying the prefix:
// each event extends the index by the Δ new updates (via
// View.ForEachBatchFrom) and evaluates at its pinned version (DESIGN.md
// §10).
//
// The index is not safe for concurrent mutation; callers serialize Extend
// against evaluation (the watch scheduler's checkpoint cache holds one
// entry lock across both).
type PrefixIndex struct {
	n        int64
	keys     []uint64     // graph.EdgeKey of each update, in stream order
	verts    keytab.Table // vertex -> index into nbr
	nbr      [][]int64    // per vertex, the positions of its incident updates, ascending
	nbrBytes int64        // what the lists in nbr hold, in bytes of capacity
	edges    keytab.Table // graph.EdgeKey -> index into first
	first    []int64      // per distinct edge, the position it was first seen at
}

// NewPrefixIndex returns an empty index over a vertex universe of size n,
// which must not exceed what a packed edge key can address (maxVertices).
func NewPrefixIndex(n int64) (*PrefixIndex, error) {
	if err := checkUniverse(n); err != nil {
		return nil, err
	}
	ix := &PrefixIndex{n: n}
	ix.verts.ResetFor(0) // Find needs slots
	ix.edges.ResetFor(0)
	return ix, nil
}

// Extent returns the number of updates indexed so far.
func (ix *PrefixIndex) Extent() int64 { return int64(len(ix.keys)) }

// N returns the vertex-universe size the index was built over.
func (ix *PrefixIndex) N() int64 { return ix.n }

// Bytes returns the index's resident size, for cache accounting, computed
// from the capacities of the arrays it holds: the key log, the incidence
// lists and their headers, both key tables and the first positions.
func (ix *PrefixIndex) Bytes() int64 {
	return ix.nbrBytes + int64(cap(ix.keys))*8 + int64(cap(ix.nbr))*int64(unsafe.Sizeof([]int64(nil))) +
		ix.verts.Bytes() + ix.edges.Bytes() + int64(cap(ix.first))*8
}

// Extend consumes one update batch, canonicalizing it as the insertion
// runner's front end does. Deletions are rejected: the index's "state at v
// is a prefix of state at v+Δ" property only holds insertion-only.
func (ix *PrefixIndex) Extend(batch []stream.Update) error {
	for _, u := range batch {
		if u.Op != stream.Insert {
			return errDeletion
		}
		if err := ix.extendKey(graph.EdgeKey(u.Edge.U, u.Edge.V)); err != nil {
			return err
		}
	}
	return nil
}

// extendKey appends the edge packed as key at the next position: to the key
// log, to both endpoints' incidence lists — both even for a self-loop, as the
// streaming pass touches U then V, so degrees and neighbor order match — and,
// when the edge is new, as its first position. Dense indices are int32, so an
// index stops at 2³¹−1 distinct vertices or edges.
func (ix *PrefixIndex) extendKey(key uint64) error {
	if ix.verts.Len() > math.MaxInt32-2 || ix.edges.Len() == math.MaxInt32 {
		return fmt.Errorf("transform: prefix index full at %d distinct vertices and %d distinct edges", ix.verts.Len(), ix.edges.Len())
	}
	pos := int64(len(ix.keys))
	ix.keys = append(ix.keys, key)
	e := graph.KeyEdge(key)
	ix.incident(e.U, pos)
	ix.incident(e.V, pos)
	if k := ix.edges.Insert(key); int(k) == len(ix.first) {
		ix.first = append(ix.first, pos)
	}
	return nil
}

// incident appends pos to u's incidence list.
func (ix *PrefixIndex) incident(u, pos int64) {
	k := ix.verts.Insert(uint64(u))
	if int(k) == len(ix.nbr) {
		ix.nbr = append(ix.nbr, nil)
	}
	c := cap(ix.nbr[k])
	ix.nbr[k] = append(ix.nbr[k], pos)
	ix.nbrBytes += int64(cap(ix.nbr[k])-c) * 8
}

// incidentAt returns the positions below v of the updates incident to u: a
// binary search, since they ascend.
func (ix *PrefixIndex) incidentAt(u, v int64) []int64 {
	k := ix.verts.Find(uint64(u))
	if k < 0 {
		return nil
	}
	ps := ix.nbr[k]
	return ps[:sort.Search(len(ps), func(i int) bool { return ps[i] >= v })]
}

// seenBefore reports whether the edge packed as key arrived before position v.
func (ix *PrefixIndex) seenBefore(key uint64, v int64) bool {
	k := ix.edges.Find(key)
	return k >= 0 && ix.first[k] < v
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
	round
	ix      *PrefixIndex
	v       int64
	scratch sketch.Reservoir // every RandomEdge answer's, re-armed by Reset
}

// IndexedRunner answers rounds directly; it has no pass lifecycle.
var _ oracle.Runner = (*IndexedRunner)(nil)

// NewIndexedRunner pins a runner at version v over ix. v must not exceed
// the index's extent.
func NewIndexedRunner(ix *PrefixIndex, v int64, rng *rand.Rand) (*IndexedRunner, error) {
	if v < 0 || v > ix.Extent() {
		return nil, fmt.Errorf("transform: IndexedRunner version %d out of indexed range [0,%d]", v, ix.Extent())
	}
	r := &IndexedRunner{round: round{model: oracle.Augmented, sampleWords: 2}, ix: ix, v: v}
	r.bind(ix.n, rng)
	return r, nil
}

// Round implements oracle.Runner. The front end admits and charges the
// queries as it does for InsertionRunner; they are then answered in order,
// and the only RNG consumer is RandomEdge, which draws its reservoir seed
// exactly where InsertionRunner.BeginRound would, so answer sequences are
// bit-identical.
func (r *IndexedRunner) Round(queries []oracle.Query) ([]oracle.Answer, error) {
	if err := r.admit(queries); err != nil {
		return nil, err
	}
	ix, v := r.ix, r.v
	r.m = v // the edge count CountEdges answers
	answers := r.answerBuf()
	for i, q := range queries {
		switch q.Type {
		case oracle.RandomEdge:
			// Reset re-arms the one scratch reservoir bit-identically to
			// NewReservoirSeeded with the same draw, so a hot watch loop
			// allocates no reservoirs.
			r.scratch.Reset(r.rng.Uint64())
			r.scratch.OfferKeys(ix.keys[:v])
			if key, ok := r.scratch.Sample(); ok {
				answers[i] = oracle.Answer{OK: true, Edge: graph.KeyEdge(key)}
			} else {
				answers[i] = oracle.Answer{OK: false}
			}
		case oracle.Degree:
			answers[i] = oracle.Answer{OK: true, Count: int64(len(ix.incidentAt(q.U, v)))}
		case oracle.Neighbor:
			if ps := ix.incidentAt(q.U, v); q.I <= int64(len(ps)) {
				e := graph.KeyEdge(ix.keys[ps[q.I-1]])
				answers[i] = oracle.Answer{OK: true, Count: e.U + e.V - q.U} // the far endpoint
			} else {
				answers[i] = oracle.Answer{OK: false}
			}
		case oracle.Adjacent:
			answers[i] = oracle.Answer{OK: true, Yes: ix.seenBefore(graph.EdgeKey(q.U, q.V), v)}
		}
	}
	r.cur = nil
	return answers, nil
}
