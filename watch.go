package streamcount

import (
	"context"
	"fmt"
	"sync"

	"streamcount/internal/core"
)

// A Querier executes typed queries: the submission half of the public API,
// implemented symmetrically by the local *Engine and by the client
// package's remote Client, so code written against it — including the
// generic Do/DoOn entry points — runs unchanged embedded in a process or
// against a streamcountd daemon.
type Querier interface {
	// Submit runs q on the default stream and returns its untyped Outcome.
	Submit(ctx context.Context, q Query) (Outcome, error)
	// SubmitOn is Submit against a named stream.
	SubmitOn(ctx context.Context, stream string, q Query) (Outcome, error)
}

// A Watcher is a Querier that also serves standing queries. *Engine and the
// client package's Client both implement it; the generic Watch entry point
// accepts either, so a watch-loop is written once and pointed at a local
// engine or a remote daemon.
type Watcher interface {
	Querier
	// WatchQuery registers q as a standing query on the named stream and
	// returns the untyped subscription. Homogeneous callers should prefer
	// the typed Watch.
	WatchQuery(ctx context.Context, stream string, q Query, opts ...WatchOption) (*Subscription[Outcome], error)
}

// WatchConfig is the resolved standing-query configuration. Implementations
// of Watcher outside this package (the client SDK, test doubles) resolve
// their options through NewWatchConfig; ordinary callers never touch it.
type WatchConfig struct {
	// EveryVersion selects the evaluate-every-published-version policy;
	// false (the default) is latest-wins coalescing.
	EveryVersion bool
	// Buffer is the subscription's event channel capacity.
	Buffer int
	// AfterVersion resumes the watch past an already-observed stream
	// version: no version <= AfterVersion is evaluated. Because every
	// evaluation is seeded WatchSeedAt(seed, version), a watch resumed at
	// the last delivered StreamVersion continues the exact transcript the
	// dropped one was producing.
	AfterVersion int64
}

// WatchOption configures a standing query.
type WatchOption func(*WatchConfig)

// NewWatchConfig resolves opts over the defaults (latest-wins coalescing,
// buffer 1).
func NewWatchConfig(opts ...WatchOption) WatchConfig {
	cfg := WatchConfig{Buffer: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Buffer < 0 {
		cfg.Buffer = 0
	}
	return cfg
}

// WatchEveryVersion makes the watch evaluate every published version in
// order: one event per Append receipt. The backlog grows while evaluation
// is slower than ingestion — use it when completeness matters more than
// freshness. (With appenders racing each other, a receipt whose
// notification arrives only after a newer version was already evaluated is
// subsumed by that evaluation; its updates are a prefix of it.)
func WatchEveryVersion() WatchOption {
	return func(c *WatchConfig) { c.EveryVersion = true }
}

// WatchLatest (the default) coalesces: each time the watch is ready for its
// next evaluation it skips straight to the newest published version, so a
// fast appender or a slow consumer never builds a backlog and every event
// is as fresh as possible.
func WatchLatest() WatchOption {
	return func(c *WatchConfig) { c.EveryVersion = false }
}

// WithWatchBuffer sets the subscription's event channel capacity (default
// 1). A larger buffer decouples the consumer from evaluation; under
// WatchLatest a smaller one coalesces harder.
func WithWatchBuffer(n int) WatchOption {
	return func(c *WatchConfig) { c.Buffer = n }
}

// WatchAfter resumes a standing query past an already-observed stream
// version: versions <= v are never evaluated. Use it to continue a dropped
// watch without re-observing (or gapping) its transcript — each event is
// still seeded WatchSeedAt(seed, version), so the resumed events are
// bit-identical to the ones the uninterrupted watch would have produced.
// The client SDK applies this automatically when it reconnects a watch.
func WatchAfter(v int64) WatchOption {
	return func(c *WatchConfig) { c.AfterVersion = v }
}

// WatchEvent is one evaluation of a standing query. Events are delivered in
// strictly increasing StreamVersion order. The terminal event of a
// subscription — and only it — has Err set (and carries no result);
// Subscription.Err reports the same error after the channel closes.
type WatchEvent[R any] struct {
	// Result is the evaluation's typed result.
	Result R
	// StreamVersion is the exact prefix the evaluation was pinned to. The
	// result is bit-identical to the same query run standalone over that
	// prefix with its seed replaced by WatchSeedAt(seed, StreamVersion).
	StreamVersion int64
	// Generation is the evaluation's index within the subscription: 0 for
	// the first event, then 1, 2, ... regardless of how many stream
	// versions a latest-wins watch skipped in between.
	Generation int64
	// Err is the subscription's terminal error; non-nil only on the final
	// event. After it the channel closes.
	Err error
}

// A Subscription is a standing query's event stream: consume Events until
// it closes, then (or at any point) read Err for the terminal reason —
// every subscription ends with one. Close tears the subscription down from
// the consumer side; canceling the context passed to Watch/WatchQuery, or
// closing the serving engine, ends it from the other side. All three leave
// no goroutines behind.
type Subscription[R any] struct {
	events chan WatchEvent[R]
	cancel context.CancelFunc
	done   chan struct{}
	err    error // terminal reason; written before done closes

	closeOnce sync.Once

	// stats reads the live checkpoint counters of the underlying engine
	// watch; nil for subscriptions without one (e.g. remote).
	stats func() SubscriptionStats
}

// SubscriptionStats reports how a subscription's evaluations were served
// by the engine's watch checkpoint cache (DESIGN.md §10).
type SubscriptionStats struct {
	// CheckpointHits counts evaluations served incrementally from a resident
	// index — the O(Δ) fast path.
	CheckpointHits int64
	// CheckpointMisses counts evaluations that first rebuilt the stream's
	// index from a full replay (cold cache or post-eviction).
	CheckpointMisses int64
	// ColdReplays counts evaluations that bypassed the cache entirely and
	// ran as shared-replay generations (turnstile streams, streams whose
	// index exceeds the cache, or a disabled cache).
	ColdReplays int64
}

// CheckpointStats reports how this subscription's evaluations were served.
// Subscriptions not backed by a local engine watch report zeros. Safe to
// call concurrently with event consumption.
func (s *Subscription[R]) CheckpointStats() SubscriptionStats {
	if s.stats == nil {
		return SubscriptionStats{}
	}
	return s.stats()
}

// NewSubscription assembles a subscription from a feed function and is the
// extension point for Watcher implementations outside this package (the
// client SDK builds its remote subscriptions with it). feed runs on its own
// goroutine: it emits events — emit reports false once the subscription is
// closed and the feed should stop — and its return value becomes the
// subscription's terminal error (a nil return is recorded as
// ErrWatchClosed; feeds only end for a reason). The terminal error is also
// delivered best-effort as a final WatchEvent with Err set, unless the
// consumer itself closed the subscription.
func NewSubscription[R any](buffer int, feed func(ctx context.Context, emit func(WatchEvent[R]) bool) error) *Subscription[R] {
	if buffer < 0 {
		buffer = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Subscription[R]{
		events: make(chan WatchEvent[R], buffer),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		err := feed(ctx, func(ev WatchEvent[R]) bool {
			select {
			case s.events <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		})
		if err == nil {
			err = ErrWatchClosed
		}
		s.err = err
		if ctx.Err() == nil {
			// The consumer didn't close us: deliver the terminal reason as
			// a final event if there is room (Err always has it either way).
			select {
			case s.events <- WatchEvent[R]{Err: err}:
			default:
			}
		}
		close(s.events)
	}()
	return s
}

// Events returns the subscription's event channel. It closes when the
// subscription ends; Err then reports why.
func (s *Subscription[R]) Events() <-chan WatchEvent[R] { return s.events }

// Close ends the subscription from the consumer side and blocks until its
// feed has unwound (no goroutine survives it). Idempotent; always nil.
func (s *Subscription[R]) Close() error {
	s.closeOnce.Do(s.cancel)
	<-s.done
	return nil
}

// Err returns the subscription's terminal error, blocking until the
// subscription has ended. It is never nil afterwards: a deliberately closed
// subscription reports ErrWatchClosed, a canceled one wraps ErrCanceled, an
// engine or server shutdown wraps ErrEngineClosed, and a failed evaluation
// reports its own error.
func (s *Subscription[R]) Err() error {
	<-s.done
	return s.err
}

// WatchSeedAt derives the seed a standing query evaluates with at stream
// version v from the query's WithSeed value. It is the reproducibility
// contract of the watch API: every WatchEvent is bit-identical to the same
// query run standalone over the version-v prefix with
// WithSeed(WatchSeedAt(seed, v)) — in any process, local or behind the
// daemon. Deriving a fresh seed per version keeps successive evaluations
// statistically independent instead of freezing one set of trial coins
// across the whole watch.
func WatchSeedAt(seed, version int64) int64 { return core.WatchSeedAt(seed, version) }

// WatchQuery registers q as a standing query on the named stream: it is
// re-admitted automatically whenever the stream's version advances past the
// last evaluated one, each evaluation pinned to an explicit version (and
// therefore bit-identical to a standalone run at that version's derived
// seed), with events delivered in version order. The stream must be
// appendable (ErrNotAppendable otherwise); version 0 — the empty prefix —
// is never evaluated.
//
// WatchQuery implements Watcher; homogeneous callers should prefer the
// typed Watch, which wraps it.
func (e *Engine) WatchQuery(ctx context.Context, stream string, q Query, opts ...WatchOption) (*Subscription[Outcome], error) {
	cfg := NewWatchConfig(opts...)
	j, err := q.job()
	if err != nil {
		return nil, err
	}
	// Fingerprinted watch evaluations share the result cache with pinned
	// queries: an evaluation at (version, query, derived seed) some other
	// watch or query already computed is served memoized.
	if e.eng.ResultCacheEnabled() {
		j.Fingerprint = fingerprintOf(q)
	}
	cw, err := e.eng.Watch(ctx, stream, j, core.WatchOptions{
		EveryVersion: cfg.EveryVersion,
		Buffer:       cfg.Buffer,
		AfterVersion: cfg.AfterVersion,
	})
	if err != nil {
		return nil, err
	}
	sub := NewSubscription(cfg.Buffer, func(sctx context.Context, emit func(WatchEvent[Outcome]) bool) error {
		defer cw.Close()
		for {
			select {
			case ev, ok := <-cw.Events():
				if !ok {
					return cw.Err()
				}
				o := q.outcome(ev.Handle)
				o.StreamVersion = ev.Version
				if !emit(WatchEvent[Outcome]{Result: o, StreamVersion: ev.Version, Generation: ev.Seq}) {
					return fmt.Errorf("streamcount: watch on %q: %w", stream, ErrWatchClosed)
				}
			case <-sctx.Done():
				return fmt.Errorf("streamcount: watch on %q: %w", stream, ErrWatchClosed)
			}
		}
	})
	sub.stats = func() SubscriptionStats {
		st := cw.CheckpointStats()
		return SubscriptionStats{
			CheckpointHits:   st.CheckpointHits,
			CheckpointMisses: st.CheckpointMisses,
			ColdReplays:      st.ColdReplays,
		}
	}
	return sub, nil
}

// Watch registers a standing query and returns its typed subscription:
//
//	sub, err := streamcount.Watch(ctx, engine, "", streamcount.CountQuery(p,
//	    streamcount.WithTrials(50000), streamcount.WithSeed(7)))
//	for ev := range sub.Events() {
//	    if ev.Err != nil { break } // terminal; sub.Err() has it too
//	    fmt.Println(ev.StreamVersion, ev.Result.Value)
//	}
//
// The watcher may be a local *Engine or the client package's remote Client
// — the loop above runs unchanged against either. Coalescing defaults to
// WatchLatest (skip to the newest version at each evaluation); pass
// WatchEveryVersion() to evaluate every published version in order. The
// subscription ends — with a terminal error on the last event and from
// Err — when ctx is canceled, Close is called, or the serving engine shuts
// down.
func Watch[R any](ctx context.Context, w Watcher, stream string, q TypedQuery[R], opts ...WatchOption) (*Subscription[R], error) {
	cfg := NewWatchConfig(opts...)
	inner, err := w.WatchQuery(ctx, stream, q, opts...)
	if err != nil {
		return nil, err
	}
	sub := NewSubscription(cfg.Buffer, func(sctx context.Context, emit func(WatchEvent[R]) bool) error {
		defer inner.Close()
		for {
			select {
			case ev, ok := <-inner.Events():
				if !ok {
					return inner.Err()
				}
				if ev.Err != nil {
					// Terminal: return it so the channel-close path delivers
					// exactly one final error event.
					return ev.Err
				}
				r, err := q.fromOutcome(ev.Result)
				if err != nil {
					return err
				}
				if !emit(WatchEvent[R]{Result: r, StreamVersion: ev.StreamVersion, Generation: ev.Generation}) {
					return fmt.Errorf("streamcount: watch on %q: %w", stream, ErrWatchClosed)
				}
			case <-sctx.Done():
				return fmt.Errorf("streamcount: watch on %q: %w", stream, ErrWatchClosed)
			}
		}
	})
	sub.stats = inner.stats
	return sub, nil
}
