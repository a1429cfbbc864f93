package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// WatchOptions configures Engine.Watch.
type WatchOptions struct {
	// EveryVersion makes the watch evaluate every version published on the
	// lane (one evaluation per Append receipt, in version order; a receipt
	// whose notification arrives only after a newer version was already
	// evaluated is subsumed by that evaluation — its updates are a prefix
	// of it). The
	// default is latest-wins coalescing: each time the watch is ready for
	// its next evaluation it skips straight to the newest published
	// version, so a slow consumer or a fast appender never builds a
	// backlog.
	EveryVersion bool
	// Buffer is the event channel capacity. 0 means unbuffered; the
	// scheduler never drops events — a full channel simply delays the next
	// evaluation, which under latest-wins coalescing is exactly what skips
	// intermediate versions.
	Buffer int
	// AfterVersion resumes the watch past an already-observed version: no
	// version <= AfterVersion is evaluated, and in every-version mode the
	// lane backfills the receipts it still remembers (a bounded ring) above
	// it. A watch that reconnects with AfterVersion = its last delivered
	// version therefore continues the same transcript — each evaluation is
	// still seeded WatchSeedAt(seed, v), so the merged event stream is
	// bit-identical to one uninterrupted watch. 0 (the default) watches from
	// the beginning; negative values are treated as 0.
	AfterVersion int64
}

// WatchEvent is one evaluation of a standing query: the served job handle,
// the exact stream version it was pinned to, and the evaluation's index
// within the watch. The result is bit-identical to the same job run
// standalone over the version-v prefix with seed WatchSeedAt(job seed, v).
type WatchEvent struct {
	// Handle is the served job (non-nil; terminal failures end the watch
	// through Watch.Err instead of flowing as events).
	Handle *JobHandle
	// Version is the pinned stream version of this evaluation.
	Version int64
	// Seq is the evaluation's index within the watch: 0, 1, 2, ...
	Seq int64
}

// A Watch is a standing query registered with Engine.Watch: a job that is
// re-admitted automatically whenever its lane's version advances past the
// last evaluated one. Events arrive on Events in version order; the channel
// closes when the watch ends — by context cancellation, Close, engine
// shutdown, or an evaluation failure — and Err then reports the terminal
// reason (never nil).
type Watch struct {
	events chan WatchEvent
	cancel context.CancelFunc
	done   chan struct{}
	err    error // terminal reason; written before done closes

	closeOnce sync.Once

	// Checkpoint-cache counters for this watch's evaluations (DESIGN.md §10).
	ckptHits   atomic.Int64
	ckptMisses atomic.Int64
	ckptCold   atomic.Int64
}

// WatchEvalStats reports how one watch's evaluations were served.
type WatchEvalStats struct {
	// CheckpointHits counts evaluations served incrementally from a resident
	// checkpoint index — the O(Δ) fast path.
	CheckpointHits int64
	// CheckpointMisses counts evaluations that rebuilt the lane's index from
	// a full replay first (cold cache or post-eviction).
	CheckpointMisses int64
	// ColdReplays counts evaluations that bypassed the cache entirely and
	// ran as shared-replay generations (turnstile lanes, disabled lanes, or
	// a disabled cache).
	ColdReplays int64
}

// CheckpointStats reports how this watch's evaluations were served. Safe to
// call concurrently with event delivery.
func (w *Watch) CheckpointStats() WatchEvalStats {
	return WatchEvalStats{
		CheckpointHits:   w.ckptHits.Load(),
		CheckpointMisses: w.ckptMisses.Load(),
		ColdReplays:      w.ckptCold.Load(),
	}
}

// Events returns the watch's event stream. It is closed when the watch
// ends; read Err for the terminal reason.
func (w *Watch) Events() <-chan WatchEvent { return w.events }

// Close ends the watch: the event channel closes (after at most one more
// in-flight event) and Err reports ErrWatchClosed. Close blocks until the
// scheduler goroutine has exited and is idempotent.
func (w *Watch) Close() {
	w.closeOnce.Do(w.cancel)
	<-w.done
}

// Err returns the watch's terminal error. It blocks until the watch has
// ended and never returns nil: a deliberately closed watch reports
// ErrWatchClosed, a canceled one ErrCanceled, an engine shutdown
// ErrEngineClosed, and a failed evaluation its own error.
func (w *Watch) Err() error {
	<-w.done
	return w.err
}

// laneWatcher is the version feed between a lane and one watch scheduler:
// Append publishes new versions into it, the scheduler drains them. Under
// latest-wins coalescing only the newest version is kept; under
// every-version mode publications queue in order.
type laneWatcher struct {
	every bool

	mu     sync.Mutex
	latest int64
	queue  []int64       // every-version mode: published versions in order
	notify chan struct{} // buffered(1): "a new version was published"
}

func newLaneWatcher(every bool) *laneWatcher {
	return &laneWatcher{every: every, notify: make(chan struct{}, 1)}
}

// publish records a newly published version and wakes the scheduler.
// Concurrent appenders may deliver their notifications out of log order
// (the log write and the notification are not one atomic step), so
// every-version mode inserts into the queue in sorted position — an
// earlier version whose notification lost the race is still evaluated, in
// order, as long as the scheduler has not already moved past it (then its
// prefix is subsumed by the newer evaluation). Latest-wins mode only ever
// tracks the maximum, where ordering races are moot.
func (lw *laneWatcher) publish(v int64) {
	lw.mu.Lock()
	if v > lw.latest {
		lw.latest = v
	}
	if lw.every {
		i := sort.Search(len(lw.queue), func(i int) bool { return lw.queue[i] >= v })
		if i == len(lw.queue) || lw.queue[i] != v {
			lw.queue = append(lw.queue, 0)
			copy(lw.queue[i+1:], lw.queue[i:])
			lw.queue[i] = v
		}
	}
	lw.mu.Unlock()
	select {
	case lw.notify <- struct{}{}:
	default:
	}
}

// next returns the next version to evaluate after `after`, if any.
func (lw *laneWatcher) next(after int64) (int64, bool) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.every {
		for len(lw.queue) > 0 {
			v := lw.queue[0]
			lw.queue = lw.queue[1:]
			if v > after {
				return v, true
			}
		}
		return 0, false
	}
	if lw.latest > after {
		return lw.latest, true
	}
	return 0, false
}

// WatchSeedAt derives the seed a standing query evaluates with at stream
// version v from the query's own seed. The derivation (a splitmix64-style
// mix) is part of the determinism contract: a WatchEvent at version v is
// bit-identical to the same job run standalone over the version-v prefix
// with its seed replaced by WatchSeedAt(seed, v). Deriving a fresh seed per
// version keeps successive evaluations statistically independent — a watch
// is many standalone estimates of a growing stream, not one estimate with
// its trial randomness frozen — while staying reproducible from (seed, v)
// alone, in any process.
func WatchSeedAt(seed, v int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(v)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Watch registers a standing query on the named lane: j is re-admitted
// automatically whenever the lane's version advances past the last
// evaluated one, each evaluation pinned to an explicit version and seeded
// with WatchSeedAt(seed, version), and the served handles are delivered as
// WatchEvents in version order. The empty prefix (version 0) is never
// evaluated — the first event arrives at the first nonzero version.
//
// Only appendable lanes can be watched (ErrNotAppendable otherwise): a
// static lane's version never advances, so a standing query over it is just
// a Submit. Versions are observed through Engine.Append; appends made
// directly on the *stream.Appendable bypass the engine and are not seen
// until the next engine-published version.
//
// The watch ends — event channel closed, Watch.Err set — when ctx is
// canceled (ErrCanceled), Close is called (ErrWatchClosed), the engine
// closes (ErrEngineClosed), or an evaluation fails (its error). The
// scheduler goroutine is owned by the engine: Engine.Close blocks until
// every watch has unwound.
func (e *Engine) Watch(ctx context.Context, name string, j Job, o WatchOptions) (*Watch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	l, ok := e.lanes[name]
	closed := e.root.Err() != nil
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: Watch(%q): %w", name, ErrUnknownStream)
	}
	// Fast-path liveness check so a closed engine reports ErrEngineClosed
	// ahead of lane-shape complaints; the authoritative check is the locked
	// one at commit time below.
	if closed {
		return nil, fmt.Errorf("core: Watch(%q): %w", name, ErrEngineClosed)
	}
	if l.app == nil {
		return nil, fmt.Errorf("core: Watch(%q): standing queries need an appendable stream: %w", name, ErrNotAppendable)
	}
	buffer := o.Buffer
	if buffer < 0 {
		buffer = 0
	}

	after := o.AfterVersion
	if after < 0 {
		after = 0
	}

	wctx, wcancel := context.WithCancel(e.root)
	stop := context.AfterFunc(ctx, wcancel)
	w := &Watch{events: make(chan WatchEvent, buffer), cancel: wcancel, done: make(chan struct{})}
	lw := newLaneWatcher(o.EveryVersion)
	l.addWatcher(lw, after)
	// Seed the feed with the version current at registration so the watch
	// evaluates the existing prefix (or, when resuming, whatever advanced
	// past AfterVersion while detached) before waiting for appends.
	lw.publish(l.app.Version())

	// Liveness check and wg.Add are one critical section against Close's
	// cancel (which takes the same mutex): the scheduler goroutine is either
	// registered before the cancel — Close then waits for it — or never
	// started. Checking earlier and Adding here would race a concurrent
	// Close's wg.Wait.
	e.mu.Lock()
	if e.root.Err() != nil {
		e.mu.Unlock()
		l.removeWatcher(lw)
		stop()
		wcancel()
		return nil, fmt.Errorf("core: Watch(%q): %w", name, ErrEngineClosed)
	}
	e.wg.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.wg.Done()
		defer close(w.done)
		defer close(w.events)
		defer stop()
		defer l.removeWatcher(lw)
		w.err = e.watchLoop(wctx, ctx, l, j, lw, w, after)
	}()
	return w, nil
}

// watchLoop is the per-watch scheduler: drain the version feed, evaluate,
// deliver, repeat. It returns the watch's terminal error.
func (e *Engine) watchLoop(wctx, callerCtx context.Context, l *lane, j Job, lw *laneWatcher, w *Watch, after int64) error {
	terminal := func() error {
		select {
		case <-l.stop:
			return fmt.Errorf("core: watch on %q: stream unregistered: %w", l.name, ErrUnknownStream)
		default:
		}
		switch {
		case callerCtx.Err() != nil:
			return fmt.Errorf("core: watch on %q: %w", l.name, canceled(context.Cause(callerCtx)))
		case e.root.Err() != nil:
			return fmt.Errorf("core: watch on %q: %w", l.name, ErrEngineClosed)
		default:
			return fmt.Errorf("core: watch on %q: %w", l.name, ErrWatchClosed)
		}
	}
	last := after // version 0 (the empty prefix) is never evaluated
	seq := int64(0)
	for {
		v, ok := lw.next(last)
		if !ok {
			select {
			case <-lw.notify:
				continue
			case <-wctx.Done():
				return terminal()
			case <-l.stop:
				return terminal()
			}
		}
		jj := j
		jj.Config.Seed = WatchSeedAt(j.Config.Seed, v)
		jj.Clique.Seed = WatchSeedAt(j.Clique.Seed, v)
		// Memoized fast path: an evaluation some earlier watch or pinned
		// query already computed at this exact (version, query, derived
		// seed) is served straight from the result cache — no index walk,
		// no replay. Bit-identity makes the substitution unobservable.
		var h *JobHandle
		var err error
		served := false
		cached := e.rc != nil && jj.Fingerprint != 0
		k := cacheKey(l, jj, v)
		if cached {
			if cv, ok := e.rc.Get(k); ok {
				h, served = cv.(*cachedResult).handle(wctx), true
			}
		}
		if !served {
			// O(Δ) fast path: serve the evaluation from the lane's
			// checkpointed prefix index when one is available
			// (insertion-only lanes, cache enabled). The result is
			// bit-identical to a cold pinned submission, so which path
			// served an event is unobservable in the transcript.
			h, err, served = e.evaluateIndexed(wctx, l, jj, v, w)
			if served && err == nil && cached && h.res.Err == nil {
				e.cachePut(k, h)
			}
		}
		if !served {
			w.ckptCold.Add(1)
			// A cold evaluation populates the cache too; the lookup above
			// was its one counted miss.
			if cached {
				h, err = e.submitMissed(wctx, l, jj, v, k)
			} else {
				h, err = e.submitPinned(wctx, l.name, jj, v)
			}
		}
		if err != nil {
			if wctx.Err() != nil {
				return terminal()
			}
			return fmt.Errorf("core: watch on %q: evaluation at version %d: %w", l.name, v, err)
		}
		select {
		case w.events <- WatchEvent{Handle: h, Version: v, Seq: seq}:
		case <-wctx.Done():
			return terminal()
		case <-l.stop:
			return terminal()
		}
		last, seq = v, seq+1
	}
}
