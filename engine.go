package streamcount

import (
	"context"
	"fmt"
	"time"

	"streamcount/internal/core"
)

// An Engine is a long-lived query service over one or more replayable
// streams — the embeddable form of the library for servers that admit
// queries continuously under deadlines. Create it once, then call Submit
// (or the typed Do) from any goroutine at any time; Close it when done.
//
// An admission controller groups queries that arrive close together —
// within the admission window while the engine is idle, or while the
// current batch is being served — into successive shared-replay "generations".
// All queries of a generation ride the same passes, so K overlapping
// queries cost max-rounds passes over the stream per generation instead of
// the sum (DESIGN.md §3). Results are bit-identical to standalone runs at
// the same seed, no matter how admission sliced the arrivals.
//
// Cancellation: Submit honors its context — on cancel it returns an error
// wrapping ErrCanceled, the abandoned job unwinds at its next pass
// boundary, and a generation none of whose submitters is still listening
// aborts its replay between batches. The engine stays serviceable
// throughout; a canceled query can simply be resubmitted.
type Engine struct {
	eng *core.Engine
}

// EngineOption configures NewEngine.
type EngineOption func(*core.EngineOptions)

// WithAdmissionWindow sets how long an idle engine waits after a query
// arrives for more queries to share its generation with. Zero (the default)
// serves the first arrival immediately; under load the window is moot,
// because everything arriving during a running generation is admitted into
// the next one anyway. Larger windows trade latency for fewer passes.
func WithAdmissionWindow(d time.Duration) EngineOption {
	return func(o *core.EngineOptions) { o.Window = d }
}

// WithWatchCheckpointMB bounds the engine's watch checkpoint cache — the
// resident per-stream indexes behind the standing queries' O(Δ) fast path
// (DESIGN.md §10) — to mb mebibytes. 0 keeps the default (64 MiB); a
// negative value disables the cache, making every watch evaluation replay
// its full pinned prefix. Events are bit-identical either way; the cache
// only changes how fast they arrive.
func WithWatchCheckpointMB(mb int) EngineOption {
	return func(o *core.EngineOptions) {
		if mb < 0 {
			o.WatchCheckpointBytes = -1
		} else {
			o.WatchCheckpointBytes = int64(mb) << 20
		}
	}
}

// WithResultCacheMB bounds the engine's cross-generation result cache
// (DESIGN.md §13) to mb mebibytes. 0 or negative (the default) disables
// it: every submission admits a generation, exactly as before the cache
// existed. With the cache on, a query repeated at an unchanged stream
// version — same canonical query, same seed — is served from the memo
// with zero stream passes, and is byte-identical to the cold result by
// the determinism contract. Entries are pinned to the stream version they
// were computed at, so appends never invalidate anything; eviction is
// purely size-LRU.
func WithResultCacheMB(mb int) EngineOption {
	return func(o *core.EngineOptions) {
		if mb <= 0 {
			o.ResultCacheBytes = 0
		} else {
			o.ResultCacheBytes = int64(mb) << 20
		}
	}
}

// ResultCacheStats is the engine-wide health of the cross-generation
// result cache (DESIGN.md §13).
type ResultCacheStats struct {
	// Hits counts submissions served from a memoized result — no
	// generation, no stream pass.
	Hits int64
	// Misses counts cache-consulting submissions that ran for real (and
	// populated the cache on success).
	Misses int64
	// Evictions counts entries dropped by the capacity bound.
	Evictions int64
	// ResidentBytes is the accounted size of all memoized results.
	ResidentBytes int64
	// CapacityBytes is the configured bound; 0 when the cache is disabled.
	CapacityBytes int64
	// Entries is the number of resident memoized results.
	Entries int
}

// ResultCacheStats reports the result cache's aggregate counters (all
// zeros when the cache is disabled).
func (e *Engine) ResultCacheStats() ResultCacheStats {
	s := e.eng.ResultCacheStats()
	return ResultCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		ResidentBytes: s.ResidentBytes,
		CapacityBytes: s.CapacityBytes,
		Entries:       s.Entries,
	}
}

// ContextWithPriority tags ctx with an admission priority lane: within one
// admission window, higher-priority queries are served in an earlier
// shared-replay generation than lower-priority ones (the multi-tenant
// weighted admission order, DESIGN.md §13). 0 is the default lane.
// Priority affects scheduling order only — results are bit-identical at
// the same (seed, stream_version) regardless.
func ContextWithPriority(ctx context.Context, p int) context.Context {
	return core.WithPriority(ctx, p)
}

// WatchCheckpointStats is the engine-wide health of the watch checkpoint
// cache (DESIGN.md §10).
type WatchCheckpointStats struct {
	// Hits counts watch evaluations served incrementally from a resident
	// index — the O(Δ) fast path.
	Hits int64
	// Misses counts evaluations that first had to (re)build a stream's index
	// from a full replay (cold cache or post-eviction).
	Misses int64
	// Evictions counts resident indexes dropped by the capacity bound.
	Evictions int64
	// Spills counts evicted (or deliberately flushed) indexes persisted to
	// their stream's WATCHIDX file next to the segments, for warm rebuilds.
	Spills int64
	// SpillLoads counts misses warmed from a spilled index instead of a full
	// replay.
	SpillLoads int64
	// ResidentBytes is the accounted size of all resident indexes.
	ResidentBytes int64
	// CapacityBytes is the configured bound; 0 when the cache is disabled.
	CapacityBytes int64
}

// WatchCheckpointStats reports the checkpoint cache's aggregate counters.
func (e *Engine) WatchCheckpointStats() WatchCheckpointStats {
	s := e.eng.WatchCheckpointStats()
	return WatchCheckpointStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Spills:        s.Spills,
		SpillLoads:    s.SpillLoads,
		ResidentBytes: s.ResidentBytes,
		CapacityBytes: s.CapacityBytes,
	}
}

// SpillWatchCheckpoint flushes the named stream's resident watch-checkpoint
// index to the WATCHIDX file in its segment directory without evicting it.
// A cluster transfer calls this just before sealing the stream so the
// shipped directory carries the warm index — the first watch event on the
// new owner extends it by Δ instead of replaying the whole prefix. Streams
// with no resident index or no durable directory are a successful no-op.
func (e *Engine) SpillWatchCheckpoint(name string) error {
	return e.eng.SpillWatchCheckpoint(name)
}

// NewEngine creates an engine over st and starts serving immediately.
// Register more streams with RegisterStream; stop the engine with Close.
func NewEngine(st Stream, opts ...EngineOption) *Engine {
	var o core.EngineOptions
	for _, opt := range opts {
		opt(&o)
	}
	return &Engine{eng: core.NewEngine(st, o)}
}

// RegisterStream adds a named stream to the engine. Named streams are
// served independently — each has its own admission queue and generations —
// and are queried with SubmitOn / DoOn.
func (e *Engine) RegisterStream(name string, st Stream) error {
	return e.eng.Register(name, st)
}

// UnregisterStream removes a named stream from the engine: queued and new
// submissions, appends and watches on the name fail with ErrUnknownStream,
// and the stream's checkpoint index is dropped. It blocks until the
// in-flight generation (if any) finishes, so on return the engine holds no
// replay over the stream and the caller may retire its backing state — the
// cluster transfer path hands a segment directory to another node exactly
// then. The default stream cannot be unregistered.
func (e *Engine) UnregisterStream(name string) error {
	return e.eng.Unregister(name)
}

// Streams returns the registered stream names in sorted order. The default
// stream is the empty name.
func (e *Engine) Streams() []string { return e.eng.Streams() }

// Lookup returns the stream registered under name, if any. It is how
// service layers read per-stream metadata (vertex count, insert-only) for
// stats without keeping a registry of their own.
func (e *Engine) Lookup(name string) (Stream, bool) { return e.eng.Lookup(name) }

// Submit runs q on the engine's default stream and blocks until the
// admission generation that adopted it completes (or ctx is done). The
// untyped Outcome carries the one result field matching the query's kind;
// homogeneous callers should prefer the typed Do.
func (e *Engine) Submit(ctx context.Context, q Query) (Outcome, error) {
	return e.SubmitOn(ctx, core.DefaultStream, q)
}

// SubmitOn is Submit against a registered named stream.
func (e *Engine) SubmitOn(ctx context.Context, stream string, q Query) (Outcome, error) {
	h, err := e.submit(ctx, stream, q)
	if err != nil {
		return Outcome{Kind: q.Kind()}, err
	}
	o := q.outcome(h)
	o.StreamVersion = h.StreamVersion()
	return o, nil
}

// submit lowers q to a core job and rides the core engine. The job's plan
// is made when its generation runs, so a derived trial budget resolves
// against the generation's pinned stream version, not the length at
// submission time.
func (e *Engine) submit(ctx context.Context, name string, q Query) (*core.JobHandle, error) {
	if _, ok := e.eng.Lookup(name); !ok {
		return nil, fmt.Errorf("streamcount: Submit on %q: %w", name, ErrUnknownStream)
	}
	j, err := q.job()
	if err != nil {
		return nil, err
	}
	// The fingerprint is only computed when a cache exists to use it, so
	// the default (cache-off) submit path allocates exactly what it did
	// before the cache was added.
	if e.eng.ResultCacheEnabled() {
		j.Fingerprint = fingerprintOf(q)
	}
	return e.eng.SubmitTo(ctx, name, j)
}

// Do runs q on the querier's default stream and returns its typed result:
//
//	est, err := streamcount.Do(ctx, engine, streamcount.CountQuery(p,
//	    streamcount.WithTrials(100000)))
//
// It is Querier.Submit with the result statically typed by the query. The
// querier may be a local *Engine or the client package's remote Client —
// the call site is identical either way.
func Do[R any](ctx context.Context, qr Querier, q TypedQuery[R]) (R, error) {
	return DoOn(ctx, qr, core.DefaultStream, q)
}

// DoOn is Do against a named stream.
func DoOn[R any](ctx context.Context, qr Querier, stream string, q TypedQuery[R]) (R, error) {
	var zero R
	o, err := qr.SubmitOn(ctx, stream, q)
	if err != nil {
		return zero, err
	}
	return q.fromOutcome(o)
}

// Append publishes updates to the named registered stream's append-only
// log and returns the new stream version. The stream must have been
// registered as an *AppendableStream (ErrNotAppendable otherwise; the
// default stream is named ""). Appends may race queries freely: a running
// generation replays the immutable prefix it pinned at its barrier, and the
// appended updates are first visible to generations sealed after Append
// returned.
func (e *Engine) Append(name string, ups []Update) (int64, error) {
	return e.eng.Append(name, ups)
}

// AppendKeyed is Append under an idempotency key. For durable streams the
// key and the batch's log range are recorded in the stream's receipt log
// before the batch's data, so a restarted process can rebuild which
// acknowledged keyed appends survived (AppendableStream.Receipts) and
// replay their receipts to retries instead of double-publishing. An empty
// key is a plain Append.
func (e *Engine) AppendKeyed(name, key string, ups []Update) (int64, error) {
	return e.eng.AppendKeyed(name, key, ups)
}

// StreamVersion returns the named stream's current version — the
// append-only log length for appendable streams, the static length
// otherwise. A query submitted now is served at this version or a later
// one, depending on admission timing; the authoritative value is the
// Outcome's StreamVersion.
func (e *Engine) StreamVersion(name string) (int64, error) {
	return e.eng.VersionOf(name)
}

// Passes returns the number of shared passes performed over the default
// stream so far. Under concurrent load it grows like 3 per generation, not
// 3 per query.
func (e *Engine) Passes() int64 { return e.eng.Passes() }

// PassesOn returns the number of shared passes performed over the named
// stream so far.
func (e *Engine) PassesOn(stream string) int64 { return e.eng.PassesOn(stream) }

// Generations returns the number of admission generations served so far
// across all streams.
func (e *Engine) Generations() int64 { return e.eng.Generations() }

// Close shuts the engine down: the running generation aborts between
// batches, queued queries fail with ErrEngineClosed, and later Submits are
// rejected. Close blocks until the engine is idle and is idempotent.
func (e *Engine) Close() error { return e.eng.Close() }
