package streamcount

import (
	"fmt"
	"io"
	"math/rand"

	"streamcount/internal/core"
	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// Re-exported core types. The facade keeps downstream users on one import
// path while the implementation lives in focused internal packages.
type (
	// Pattern is a constant-size target subgraph H.
	Pattern = pattern.Pattern
	// Graph is an in-memory simple undirected graph.
	Graph = graph.Graph
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Update is one stream element (edge insert or delete).
	Update = stream.Update
	// Stream is a replayable multi-pass edge stream.
	Stream = stream.Stream
	// AppendableStream is a versioned, append-only edge log for live
	// ingestion: Append publishes updates and returns the new version, and
	// At(v) returns the immutable length-v prefix as a StreamView. Register
	// one on an Engine to ingest and query concurrently — each admission
	// generation pins the version current at its barrier (DESIGN.md §7).
	AppendableStream = stream.Appendable
	// AppendableOptions configures NewAppendableStream (segment size,
	// optional on-disk segment directory).
	AppendableOptions = stream.AppendableOptions
	// StreamView is an immutable pinned prefix of an AppendableStream. It is
	// a Stream: every pass replays the identical update sequence regardless
	// of concurrent appends.
	StreamView = stream.View
	// AppendReceipt is one recovered idempotency-key receipt of a durable
	// AppendableStream: the key plus the acknowledgment its AppendKeyed
	// returned. OpenAppendableStream surfaces, via Receipts, exactly the
	// keyed appends whose batches survived the kill, so a server can rebuild
	// its dedup registry and replay receipts to retried ingests.
	AppendReceipt = stream.Receipt
	// SampledCopy is a uniformly sampled copy of H.
	SampledCopy = core.SampledCopy
)

// Stream update operations.
const (
	Insert = stream.Insert
	Delete = stream.Delete
)

// PatternByName resolves catalog patterns: "triangle", "C<k>", "K<r>",
// "S<k>", "P<k>", "paw", "diamond".
func PatternByName(name string) (*Pattern, error) { return pattern.ByName(name) }

// NewPattern builds a custom pattern on n vertices from an edge list.
func NewPattern(name string, n int, edges [][2]int) (*Pattern, error) {
	return pattern.New(name, n, edges)
}

// NewStream builds an in-memory stream over n vertices, validating updates.
func NewStream(n int64, updates []Update) (Stream, error) { return stream.NewSlice(n, updates) }

// NewAppendableStream creates an empty versioned append-only stream over n
// vertices. With AppendableOptions.Dir set the log is durable: every
// acknowledged append is written to the tail segment file first, sealed
// segments are flushed to disk and evicted from memory (so the log can
// outgrow RAM), and a checksummed manifest tracks the sealed prefix —
// reopen the directory after a crash with OpenAppendableStream. Appends, At
// views and replays are safe to use concurrently.
func NewAppendableStream(n int64, opts AppendableOptions) (*AppendableStream, error) {
	return stream.NewAppendable(n, opts)
}

// OpenAppendableStream rebuilds a durable appendable stream from the
// segment directory a previous (possibly killed) process wrote: the
// checksummed manifest is verified (ErrManifestCorrupt on mismatch), sealed
// segments are validated (ErrSegmentCorrupt on contradiction), fully
// written segments missing from the manifest are recovered by a forward
// scan, and a torn tail is truncated to its last valid record. Every
// version the recovered log reports replays bit-identically to the prefix
// the previous process served at that version.
func OpenAppendableStream(dir string, opts AppendableOptions) (*AppendableStream, error) {
	return stream.OpenAppendable(dir, opts)
}

// StreamFromGraph turns a graph into an insertion-only stream.
func StreamFromGraph(g *Graph) Stream { return stream.FromGraph(g) }

// TurnstileFromGraph builds a turnstile stream whose final graph is g:
// every edge of g inserted plus extra·m decoy edges inserted and later
// deleted, interleaved at random.
func TurnstileFromGraph(g *Graph, extra float64, rng *rand.Rand) Stream {
	return stream.WithDeletions(g, extra, rng)
}

// ShuffledStream returns an in-memory copy of st with updates permuted
// (per-edge order preserved for turnstile streams, so the stream stays
// well-formed). Streams that are not already in memory — e.g. file-backed
// streams from OpenStreamFile — are materialized with one pass first; the
// error reports a failed replay.
func ShuffledStream(st Stream, rng *rand.Rand) (Stream, error) {
	sl, err := stream.Collect(st)
	if err != nil {
		return nil, fmt.Errorf("streamcount: cannot shuffle stream: %w", err)
	}
	return stream.Shuffled(sl, rng), nil
}

// NewGraph returns an empty graph on n vertices. It panics unless
// 0 <= n <= 2³².
func NewGraph(n int64) *Graph { return graph.New(n) }

// ReadGraph parses the "n m" + edge-list format. A vertex count outside
// [0, 2³²] is an error.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// OpenStreamFile opens a file-backed update stream ("n" header, then
// "+ u v"/"- u v" lines). The text is parsed once, into a binary spill under
// $TMPDIR that every pass replays: 8 B + 1 bit per update of temp disk, which
// is RAM when /tmp is tmpfs.
func OpenStreamFile(path string) (Stream, error) { return stream.OpenFile(path) }

// TrialsFor returns the instance count Theorem 17/1 prescribes for m edges,
// edge-cover exponent rho, accuracy eps and lower bound l on #H.
func TrialsFor(m int64, rho float64, eps, l float64) int { return core.TrialsFor(m, rho, eps, l) }

// ExactCount counts #H in an in-memory graph exactly (ground truth).
func ExactCount(g *Graph, p *Pattern) int64 { return exact.Count(g, p) }

// Degeneracy returns the degeneracy λ of g and a degeneracy ordering.
func Degeneracy(g *Graph) (int64, []int64) { return graph.Degeneracy(g) }

// Generators re-exported for examples and tests.

// ErdosRenyi returns a uniform graph with n vertices and m edges.
func ErdosRenyi(rng *rand.Rand, n, m int64) *Graph { return gen.ErdosRenyiGNM(rng, n, m) }

// BarabasiAlbert returns a preferential-attachment graph with degeneracy k.
func BarabasiAlbert(rng *rand.Rand, n, k int64) *Graph { return gen.BarabasiAlbert(rng, n, k) }
