// Package stream defines the graph stream models of the paper: arbitrary-
// order insertion-only streams (the cash-register setting) and turnstile
// streams (insertions and deletions), together with a replayable multi-pass
// abstraction and pass accounting.
package stream

import (
	"fmt"
	"math/rand"
	"sort"

	"streamcount/internal/graph"
)

// Op is the type of a stream update.
type Op int8

const (
	// Insert adds an edge.
	Insert Op = 1
	// Delete removes a previously inserted edge (turnstile only).
	Delete Op = -1
)

func (o Op) String() string {
	switch o {
	case Insert:
		return "+"
	case Delete:
		return "-"
	default:
		return "?"
	}
}

// Update is one element of a graph stream.
type Update struct {
	Edge graph.Edge
	Op   Op
}

// DefaultBatchSize is the batch granularity of ForEachBatch: large enough
// that the per-batch callback cost vanishes against the per-update work,
// small enough that a batch stays cache-resident while the pass engine fans
// it out to workers.
const DefaultBatchSize = 4096

// Stream is a replayable edge stream over a graph on N vertices. A call to
// ForEachBatch is one full pass in arbitrary order; multi-pass algorithms
// call it repeatedly. Implementations replay the same sequence on every
// pass.
type Stream interface {
	// N returns the number of vertices (known to the algorithm upfront, as
	// in the paper's model).
	N() int64
	// ForEachBatch performs one pass, invoking fn with consecutive chunks of
	// updates (at most DefaultBatchSize each, in order): one dynamic call per
	// ~4096 updates instead of one per update. It stops early and returns
	// fn's error if non-nil. The batch slice is only valid during the
	// callback — implementations may reuse its backing array.
	ForEachBatch(fn func([]Update) error) error
	// Len returns the stream length (number of updates).
	Len() int64
	// InsertOnly reports whether the stream contains no deletions.
	InsertOnly() bool
}

// Slice is an in-memory Stream.
type Slice struct {
	n       int64
	updates []Update
	inserts bool
}

// NewSlice builds a Slice stream, validating vertex ranges and ops.
func NewSlice(n int64, updates []Update) (*Slice, error) {
	insertOnly := true
	for i, u := range updates {
		if u.Edge.IsLoop() {
			return nil, fmt.Errorf("stream: update %d is a self-loop %v", i, u.Edge)
		}
		if u.Edge.U < 0 || u.Edge.U >= n || u.Edge.V < 0 || u.Edge.V >= n {
			return nil, fmt.Errorf("stream: update %d edge %v out of range [0,%d)", i, u.Edge, n)
		}
		switch u.Op {
		case Insert:
		case Delete:
			insertOnly = false
		default:
			return nil, fmt.Errorf("stream: update %d has invalid op %d", i, u.Op)
		}
	}
	return &Slice{n: n, updates: updates, inserts: insertOnly}, nil
}

// N implements Stream.
func (s *Slice) N() int64 { return s.n }

// Len implements Stream.
func (s *Slice) Len() int64 { return int64(len(s.updates)) }

// InsertOnly implements Stream.
func (s *Slice) InsertOnly() bool { return s.inserts }

// ForEachBatch implements Stream, serving zero-copy subslices of the backing
// array.
func (s *Slice) ForEachBatch(fn func([]Update) error) error {
	for i := 0; i < len(s.updates); i += DefaultBatchSize {
		j := i + DefaultBatchSize
		if j > len(s.updates) {
			j = len(s.updates)
		}
		if err := fn(s.updates[i:j]); err != nil {
			return err
		}
	}
	return nil
}

// Updates returns the backing update slice (not a copy).
func (s *Slice) Updates() []Update { return s.updates }

// FromGraph returns an insertion-only stream of g's edges in canonical
// order. Use Shuffled for arbitrary (random) order.
func FromGraph(g *graph.Graph) *Slice {
	edges := g.Edges()
	ups := make([]Update, len(edges))
	for i, e := range edges {
		ups[i] = Update{Edge: e, Op: Insert}
	}
	s, err := NewSlice(g.N(), ups)
	if err != nil {
		panic(err) // graphs are always valid streams
	}
	return s
}

// Shuffled returns a copy of s with its updates permuted by rng. For
// turnstile streams each edge's own updates keep their relative order
// (inserts stay before the matching deletes), so the stream remains
// well-formed.
func Shuffled(s *Slice, rng *rand.Rand) *Slice {
	type keyed struct {
		pri float64
		u   Update
	}
	all := make([]keyed, 0, len(s.updates))
	if s.inserts {
		for _, u := range s.updates {
			all = append(all, keyed{rng.Float64(), u})
		}
	} else {
		// Draw priorities per edge and assign them in increasing order to
		// that edge's updates, preserving per-edge update order.
		byEdge := make(map[graph.Edge][]Update)
		var edgeOrder []graph.Edge
		for _, u := range s.updates {
			c := u.Edge.Canon()
			if _, ok := byEdge[c]; !ok {
				edgeOrder = append(edgeOrder, c)
			}
			byEdge[c] = append(byEdge[c], u)
		}
		for _, e := range edgeOrder {
			seq := byEdge[e]
			pris := make([]float64, len(seq))
			for i := range pris {
				pris[i] = rng.Float64()
			}
			sort.Float64s(pris)
			for i, u := range seq {
				all = append(all, keyed{pris[i], u})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].pri < all[j].pri })
	ups := make([]Update, len(all))
	for i, k := range all {
		ups[i] = k.u
	}
	out, err := NewSlice(s.n, ups)
	if err != nil {
		panic(err)
	}
	return out
}

// AdjacencyListOrder returns an insertion-only stream of g in the adjacency
// list model of the paper's §1.3 related work: edges are grouped by
// endpoint (each vertex's incident edges appear consecutively), and each
// edge is streamed once, when its ≺-smaller endpoint's group is emitted.
// Since the arbitrary-order algorithms make no order assumptions, this is a
// drop-in order for all of them; it exists so experiments can check
// order-insensitivity against a maximally structured order.
func AdjacencyListOrder(g *graph.Graph) *Slice {
	var ups []Update
	seen := make(map[graph.Edge]bool, g.M())
	for v := int64(0); v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			c := graph.Edge{U: v, V: w}.Canon()
			if !seen[c] {
				seen[c] = true
				ups = append(ups, Update{Edge: c, Op: Insert})
			}
		}
	}
	s, err := NewSlice(g.N(), ups)
	if err != nil {
		panic(err)
	}
	return s
}

// Collect replays the stream once and returns an in-memory copy of it. It
// is how disk-backed (or otherwise non-Slice) streams are brought in memory
// for operations that need random access to the update sequence, such as
// shuffling.
func Collect(s Stream) (*Slice, error) {
	if sl, ok := s.(*Slice); ok {
		return sl, nil
	}
	ups := make([]Update, 0, s.Len())
	err := s.ForEachBatch(func(batch []Update) error {
		ups = append(ups, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NewSlice(s.N(), ups)
}

// Materialize replays the stream once and returns the resulting graph,
// validating turnstile semantics (no deleting absent edges, no duplicate
// inserts).
func Materialize(s Stream) (*graph.Graph, error) {
	g := graph.New(s.N())
	var idx int64
	err := s.ForEachBatch(func(batch []Update) error {
		for _, u := range batch {
			switch u.Op {
			case Insert:
				if !g.AddEdge(u.Edge.U, u.Edge.V) {
					return fmt.Errorf("stream: update %d inserts existing edge %v", idx, u.Edge)
				}
			case Delete:
				if !g.RemoveEdge(u.Edge.U, u.Edge.V) {
					return fmt.Errorf("stream: update %d deletes absent edge %v", idx, u.Edge)
				}
			}
			idx++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// WithDeletions builds a turnstile stream whose final graph is g: every edge
// of g is inserted, and additionally extra·m decoy edges (absent from g) are
// inserted and later deleted, all interleaved at random.
func WithDeletions(g *graph.Graph, extra float64, rng *rand.Rand) *Slice {
	real := g.Edges()
	decoyCount := int(extra * float64(len(real)))
	maxDecoys := g.N()*(g.N()-1)/2 - g.M()
	if int64(decoyCount) > maxDecoys {
		decoyCount = int(maxDecoys)
	}
	decoySet := make(map[graph.Edge]bool, decoyCount)
	n := g.N()
	for n >= 2 && len(decoySet) < decoyCount {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v {
			continue
		}
		c := graph.Edge{U: u, V: v}.Canon()
		if g.HasEdge(c.U, c.V) || decoySet[c] {
			continue
		}
		decoySet[c] = true
	}
	type ev struct {
		pri float64
		u   Update
	}
	evs := make([]ev, 0, len(real)+2*len(decoySet))
	for _, e := range real {
		evs = append(evs, ev{rng.Float64(), Update{Edge: e, Op: Insert}})
	}
	// Sort decoys so priority assignment is deterministic for a seeded rng
	// (map iteration order is not).
	decoys := make([]graph.Edge, 0, len(decoySet))
	for e := range decoySet {
		decoys = append(decoys, e)
	}
	sort.Slice(decoys, func(i, j int) bool {
		if decoys[i].U != decoys[j].U {
			return decoys[i].U < decoys[j].U
		}
		return decoys[i].V < decoys[j].V
	})
	for _, e := range decoys {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		evs = append(evs,
			ev{a, Update{Edge: e, Op: Insert}},
			ev{b, Update{Edge: e, Op: Delete}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pri < evs[j].pri })
	ups := make([]Update, len(evs))
	for i, e := range evs {
		ups[i] = e.u
	}
	out, err := NewSlice(g.N(), ups)
	if err != nil {
		panic(err)
	}
	return out
}

// Counter wraps a Stream and counts passes. It is how the tests verify the
// pass complexity claims (3 passes for Theorem 1, 5r for Theorem 2).
type Counter struct {
	Stream
	passes int64
}

// NewCounter wraps s.
func NewCounter(s Stream) *Counter { return &Counter{Stream: s} }

// ForEachBatch counts the pass and delegates.
func (c *Counter) ForEachBatch(fn func([]Update) error) error {
	c.passes++
	return c.Stream.ForEachBatch(fn)
}

// Passes returns the number of ForEachBatch calls.
func (c *Counter) Passes() int64 { return c.passes }
