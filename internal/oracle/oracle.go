// Package oracle defines the graph query-access models of the paper: the
// augmented general graph model (Definition 6) and its relaxed variant
// (Definition 10), as a batch-of-queries ("round") interface.
//
// A Runner answers one batch of queries per Round call. The number of Round
// calls an algorithm makes is exactly its round-adaptivity (Definition 8);
// the streaming runners in internal/transform answer each round with one
// pass over the stream, which is the paper's generic transformation
// (Theorems 9 and 11).
package oracle

import (
	"streamcount/internal/graph"
	"streamcount/internal/stream"
)

// Type enumerates the query types.
type Type int

const (
	// CountEdges returns the number of edges m. (The streaming emulation
	// gets m for free in its first pass; the direct oracle knows it. The
	// paper's algorithms all assume m is available after one pass.)
	CountEdges Type = iota
	// RandomEdge is f1: a uniformly random edge (exact in the augmented
	// model, approximately uniform and fallible in the relaxed model).
	RandomEdge
	// Degree is f2: the degree of vertex U.
	Degree
	// Neighbor is f3 in the augmented model: the I-th (1-based) neighbor of
	// vertex U; fails if I exceeds U's degree.
	Neighbor
	// RandomNeighbor is f3 in the relaxed model: an approximately uniform
	// random neighbor of U; fails if U is isolated (or with small
	// probability).
	RandomNeighbor
	// Adjacent is f4: whether (U,V) is an edge.
	Adjacent
)

func (t Type) String() string {
	switch t {
	case CountEdges:
		return "CountEdges"
	case RandomEdge:
		return "RandomEdge"
	case Degree:
		return "Degree"
	case Neighbor:
		return "Neighbor"
	case RandomNeighbor:
		return "RandomNeighbor"
	case Adjacent:
		return "Adjacent"
	default:
		return "Unknown"
	}
}

// Query is a single query. U, V and I are interpreted per Type.
type Query struct {
	Type Type
	U, V int64
	I    int64 // 1-based neighbor index for Neighbor
}

// Answer is the response to a Query.
type Answer struct {
	// OK reports whether the query succeeded. RandomEdge fails on an empty
	// graph (or, in the relaxed model, with small probability); Neighbor
	// fails when the index exceeds the degree; RandomNeighbor fails on
	// isolated vertices.
	OK bool
	// Edge is the sampled edge for RandomEdge.
	Edge graph.Edge
	// Count carries the numeric result: m for CountEdges, the degree for
	// Degree, and the neighbor's vertex ID for Neighbor / RandomNeighbor.
	Count int64
	// Yes is the result of Adjacent.
	Yes bool
}

// Model distinguishes the exact augmented model from the relaxed one, which
// determines whether Neighbor or RandomNeighbor is available.
type Model int

const (
	// Augmented is the augmented general graph model (Definition 6):
	// exact uniform edges and indexed neighbor access.
	Augmented Model = iota
	// Relaxed is the relaxed augmented general graph model (Definition 10):
	// approximately uniform edges and neighbors, no indexed access.
	Relaxed
)

func (m Model) String() string {
	if m == Relaxed {
		return "relaxed"
	}
	return "augmented"
}

// Runner answers batches of queries. Each Round call is one adaptivity
// round; for streaming runners it is one pass over the input stream.
type Runner interface {
	// Round answers all queries in the batch. The answer slice is parallel
	// to the query slice. It may be the runner's own buffer, filled again
	// by every round: answers are valid until the next Round or BeginRound
	// on the runner, or its release to a pool, and a caller that needs one
	// for longer copies it. The runner keeps queries no longer than the
	// round.
	Round(queries []Query) ([]Answer, error)
	// Model reports which f3 flavour the runner supports.
	Model() Model
	// Rounds returns the number of Round calls made so far.
	Rounds() int64
	// Queries returns the total number of queries answered so far.
	Queries() int64
	// SpaceWords estimates the emulation space used so far in 64-bit words
	// (query-answering state only, excluding the algorithm's own state).
	SpaceWords() int64
}

// PassRunner is a Runner whose round lifecycle is exposed to an external
// pass scheduler, so one stream replay can serve the concurrent rounds of
// many runners (the session engine's shared pass). The lifecycle of one
// round is
//
//	BeginRound(queries)  — register the round's queries, set up state;
//	ConsumeBatch(batch)  — fed every update batch of exactly one pass,
//	                       in stream order;
//	EndRound()           — merge the per-query state into answers.
//
// Round(qs) must be equivalent to BeginRound(qs), one full replay of the
// runner's own stream through ConsumeBatch, then EndRound() — a runner
// driven standalone and one driven by a scheduler give bit-identical
// answers for the same query batch and update sequence. ConsumeBatch must
// not retain the batch slice: schedulers may reuse its backing array.
type PassRunner interface {
	Runner
	// BeginRound starts a round, registering its queries.
	BeginRound(queries []Query) error
	// ConsumeBatch consumes one batch of the round's single pass.
	ConsumeBatch(batch []stream.Update) error
	// EndRound completes the round and returns the answers, parallel to the
	// queries registered by BeginRound and valid for as long as Round's: a
	// scheduler hands them to the round's caller before it begins that
	// runner's next round.
	EndRound() ([]Answer, error)
}
