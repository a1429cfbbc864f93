package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamcount/internal/rcache"
	"streamcount/internal/stream"
)

// DefaultStream is the name of the stream an Engine is created over. Submit
// targets it; SubmitTo targets any registered stream by name.
const DefaultStream = ""

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Window is the admission window: after the first query of an idle
	// generation arrives, the engine waits Window for more arrivals before
	// sealing the generation and serving it with one shared-replay session.
	// Zero serves the first arrival immediately. Under load the window is
	// moot — every query arriving while a generation is being served is
	// admitted into the next one, so batching is automatic.
	Window time.Duration
	// WatchCheckpointBytes bounds the watch checkpoint cache backing the
	// standing queries' O(Δ) fast path (DESIGN.md §10). 0 means
	// DefaultWatchCheckpointBytes; a negative value disables the cache, so
	// every watch evaluation cold-replays its pinned prefix.
	WatchCheckpointBytes int64
	// ResultCacheBytes bounds the cross-generation result cache
	// (DESIGN.md §13). 0 — the default — disables it: submissions always
	// admit generations, exactly as before the cache existed.
	ResultCacheBytes int64
	// ResultCacheTTL is the per-entry lifetime of cached results (0: cache
	// entries never expire; capacity LRU still bounds them).
	ResultCacheTTL time.Duration
}

// engineJob is one queued unit of work: the job, the submitter's context,
// and the channel Submit blocks on until the job's generation completes.
// pin is the explicit stream version the job must be evaluated at, or
// pinBarrier for the normal case — "whatever version the admission
// generation pins at its barrier". Watch evaluations submit pinned jobs so
// an event's version is decided before its seed is derived.
type engineJob struct {
	ctx      context.Context
	job      Job
	pin      int64
	priority int        // admission priority lane (WithPriority); higher runs earlier
	h        *JobHandle // set when the generation ran
	err      error      // submit-level failure (engine closed before the job ran)
	done     chan struct{}
}

// pinBarrier is the engineJob.pin sentinel for barrier-pinned jobs.
const pinBarrier int64 = -1

// lane is the per-stream admission queue plus the goroutine serving it.
// Generations on one lane run strictly one after another (streams need not
// support concurrent replays); distinct lanes serve their streams
// concurrently.
type lane struct {
	name string
	st   stream.Stream
	app  *stream.Appendable // non-nil when st supports live ingestion

	mu      sync.Mutex
	queue   []*engineJob
	wake    chan struct{} // buffered(1): "queue became non-empty"
	stopped bool          // Unregister called: reject new enqueues

	// stop closes when the lane is unregistered (Engine.Unregister): the
	// serve loop drains and exits, and the lane's watches end. exited closes
	// when the serve goroutine has returned, so Unregister can wait for the
	// in-flight generation to finish before the caller tears down the
	// stream's backing state.
	stop   chan struct{}
	exited chan struct{}

	wmu      sync.Mutex
	watchers map[*laneWatcher]struct{} // standing queries following this lane
	receipts []int64                   // ring of recently published versions, for watch resumption

	passes      atomic.Int64 // lane-wide shared pass accounting
	generations atomic.Int64
}

// countingStream threads the lane's pass counter through whatever stream a
// generation is served over. Appendable lanes pin a fresh View per
// generation, so the counter cannot live on any one stream value — it lives
// on the lane and every pinned view is wrapped on its way into a session.
type countingStream struct {
	stream.Stream
	passes *atomic.Int64
}

func (c countingStream) ForEachBatch(fn func([]stream.Update) error) error {
	c.passes.Add(1)
	return c.Stream.ForEachBatch(fn)
}

// pin snapshots the lane's stream for one generation. Appendable lanes pin
// the prefix current at the barrier — every job of the generation then sees
// the identical immutable view no matter how many updates are appended while
// the generation runs — and static lanes pin the stream itself. The returned
// version is the pinned prefix length (the static stream's length for static
// lanes).
func (l *lane) pin() (stream.Stream, int64) {
	if l.app == nil {
		return countingStream{l.st, &l.passes}, l.st.Len()
	}
	v := l.app.Snapshot()
	return countingStream{v, &l.passes}, v.Version()
}

// pinAt pins the lane's stream at an explicit version. Only appendable lanes
// can be pinned (pinned jobs are only produced by the watch scheduler, which
// rejects static lanes at registration).
func (l *lane) pinAt(v int64) (stream.Stream, error) {
	if l.app == nil {
		return nil, fmt.Errorf("core: pin at version %d on static stream %q: %w", v, l.name, ErrNotAppendable)
	}
	view, err := l.app.At(v)
	if err != nil {
		return nil, err
	}
	return countingStream{view, &l.passes}, nil
}

// laneReceiptRing bounds the published-version ring each lane keeps for
// watch resumption. A resuming watch older than the ring still sees the
// current version (published at registration); only the intermediate
// every-version receipts beyond the ring are coalesced away.
const laneReceiptRing = 4096

// addWatcher registers a standing query's version feed with the lane,
// backfilling every remembered receipt newer than after so a resuming
// every-version watch re-observes the versions it missed while detached.
// Registration, backfill, and the lane's receipt recording are one critical
// section: a version published concurrently with registration is seen
// exactly once (either in the backfill or as a live notification).
func (l *lane) addWatcher(lw *laneWatcher, after int64) {
	l.wmu.Lock()
	l.watchers[lw] = struct{}{}
	for _, v := range l.receipts {
		if v > after {
			lw.publish(v)
		}
	}
	l.wmu.Unlock()
}

// removeWatcher unregisters a version feed.
func (l *lane) removeWatcher(lw *laneWatcher) {
	l.wmu.Lock()
	delete(l.watchers, lw)
	l.wmu.Unlock()
}

// notifyWatchers publishes a new version to every standing query on the
// lane and records it in the resumption ring. Called by Append after the
// batch is visible in the log.
func (l *lane) notifyWatchers(v int64) {
	l.wmu.Lock()
	l.receipts = append(l.receipts, v)
	if len(l.receipts) >= 2*laneReceiptRing {
		copy(l.receipts, l.receipts[len(l.receipts)-laneReceiptRing:])
		l.receipts = l.receipts[:laneReceiptRing]
	}
	for lw := range l.watchers {
		lw.publish(v)
	}
	l.wmu.Unlock()
}

// An Engine is the long-lived form of the session scheduler: it owns one
// stream (plus any number of registered named streams) and serves typed
// queries submitted at any time. An admission controller groups queries that
// arrive close together — within Window while the engine is idle, or during
// the service of the current generation — into successive shared-replay
// session generations, so K overlapping queries cost max-rounds passes per
// generation instead of the sum (DESIGN.md §3).
//
// Determinism carries over from the session engine unchanged: a query's
// result is bit-identical to its standalone run no matter which generation
// admitted it or which queries share that generation, because every job owns
// its RNG and per-round state and the shared replay feeds each runner
// exactly the batches a private replay would.
//
// Cancellation: each Submit's context is honored at the job's round
// boundaries; a generation whose submitters have all gone away aborts its
// replay between batches. Either way the stream is left replayable and the
// engine stays serviceable — a canceled query can be resubmitted and returns
// the bit-identical result an uncancelled run would have produced.
type Engine struct {
	opts EngineOptions

	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	lanes map[string]*lane

	ckpt *watchCheckpoints
	// rc is the cross-generation result cache; nil (the default) disables
	// it and keeps the submit path byte-for-byte as it was without one.
	rc *rcache.Cache
}

// NewEngine creates an engine over st and starts serving immediately.
func NewEngine(st stream.Stream, opts EngineOptions) *Engine {
	root, cancel := context.WithCancel(context.Background())
	capacity := opts.WatchCheckpointBytes
	if capacity == 0 {
		capacity = DefaultWatchCheckpointBytes
	}
	e := &Engine{opts: opts, root: root, cancel: cancel, lanes: make(map[string]*lane),
		ckpt: newWatchCheckpoints(capacity),
		rc:   rcache.New(opts.ResultCacheBytes, opts.ResultCacheTTL)}
	if err := e.Register(DefaultStream, st); err != nil {
		panic(err) // unreachable: the engine is empty and open
	}
	return e
}

// Register adds a named stream. Queries reach it through SubmitTo. Streams
// are served independently: each has its own admission queue and its
// generations do not serialize with other streams'.
func (e *Engine) Register(name string, st stream.Stream) error {
	if st == nil {
		return fmt.Errorf("core: Register(%q): nil stream: %w", name, ErrBadConfig)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.root.Err() != nil {
		return fmt.Errorf("core: Register(%q): %w", name, ErrEngineClosed)
	}
	if _, ok := e.lanes[name]; ok {
		return fmt.Errorf("core: Register(%q): stream already registered: %w", name, ErrBadConfig)
	}
	app, _ := st.(*stream.Appendable)
	l := &lane{name: name, st: st, app: app, wake: make(chan struct{}, 1),
		stop: make(chan struct{}), exited: make(chan struct{}),
		watchers: make(map[*laneWatcher]struct{})}
	e.lanes[name] = l
	e.wg.Add(1)
	go e.serve(l)
	return nil
}

// Unregister removes a named stream from the engine: new submissions,
// appends and watches on the name fail with ErrUnknownStream, queued jobs
// are failed the same way, the lane's standing queries end, and the
// stream's checkpoint index is dropped from the cache. Unregister blocks
// until the in-flight generation (if any) has finished, so when it returns
// the engine holds no replay over the stream and the caller may retire its
// backing state — the transfer path hands the segment directory to another
// node exactly then. The default stream cannot be unregistered.
func (e *Engine) Unregister(name string) error {
	if name == DefaultStream {
		return fmt.Errorf("core: Unregister: the default stream cannot be unregistered: %w", ErrBadConfig)
	}
	e.mu.Lock()
	l, ok := e.lanes[name]
	if ok {
		delete(e.lanes, name)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: Unregister(%q): %w", name, ErrUnknownStream)
	}
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		close(l.stop)
	}
	l.mu.Unlock()
	<-l.exited
	// Drop the cached checkpoint index and memoized results: a later
	// re-registration under the same name (a transferred-back stream) must
	// not see stale state — its version v may be a different prefix than
	// the dead stream's version v.
	e.ckpt.dropLane(l.name)
	e.rc.DropStream(l.name)
	return nil
}

// Lookup returns the stream registered under name, if any. It is how the
// facade resolves per-stream defaults (e.g. the trial-budget edge bound)
// without keeping a registry of its own.
func (e *Engine) Lookup(name string) (stream.Stream, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.lanes[name]
	if !ok {
		return nil, false
	}
	return l.st, true
}

// Streams returns the registered stream names in sorted order.
func (e *Engine) Streams() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.lanes))
	for name := range e.lanes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Submit queues j on the default stream and blocks until its generation has
// served it (returning the job's handle) or ctx is done (returning an error
// wrapping ErrCanceled; the job itself is then abandoned at its next round
// boundary). Submit may be called from any goroutine at any time.
func (e *Engine) Submit(ctx context.Context, j Job) (*JobHandle, error) {
	return e.SubmitTo(ctx, DefaultStream, j)
}

// SubmitTo is Submit against the named registered stream.
func (e *Engine) SubmitTo(ctx context.Context, name string, j Job) (*JobHandle, error) {
	return e.submitPinned(ctx, name, j, pinBarrier)
}

// submitPinned is SubmitTo with an explicit pinned stream version (or
// pinBarrier for the normal barrier-pinned case). Pinned jobs are grouped by
// version into their own shared-replay generations, so concurrent standing
// queries evaluating the same version still share passes. Fingerprinted jobs
// on a cache-enabled engine take the memoizing path first.
func (e *Engine) submitPinned(ctx context.Context, name string, j Job, pin int64) (*JobHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	l, ok := e.lanes[name]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: SubmitTo(%q): %w", name, ErrUnknownStream)
	}
	if e.rc != nil && j.Fingerprint != 0 {
		return e.submitCached(ctx, l, j, pin)
	}
	return e.submitCold(ctx, l, j, pin)
}

// submitCold queues j on its lane and blocks until a generation served it —
// the pre-cache submit path, byte-for-byte.
func (e *Engine) submitCold(ctx context.Context, l *lane, j Job, pin int64) (*JobHandle, error) {
	ej := &engineJob{ctx: ctx, job: j, pin: pin, priority: PriorityFromContext(ctx), done: make(chan struct{})}
	if err := l.enqueue(e.root, ej); err != nil {
		return nil, err
	}
	select {
	case <-ej.done:
		if ej.err != nil {
			return nil, ej.err
		}
		if jerr := ej.h.Result().Err; jerr != nil {
			return ej.h, jerr
		}
		return ej.h, nil
	case <-ctx.Done():
		// The submitter stops waiting; the job is unwound by the generation
		// machinery (it fails with ErrCanceled at its next round boundary,
		// and a generation with no remaining listeners aborts its replay).
		return nil, canceled(context.Cause(ctx))
	}
}

// Passes returns the number of shared passes performed over the default
// stream so far.
func (e *Engine) Passes() int64 { return e.PassesOn(DefaultStream) }

// PassesOn returns the number of shared passes performed over the named
// stream so far (0 for unknown names).
func (e *Engine) PassesOn(name string) int64 {
	e.mu.Lock()
	l := e.lanes[name]
	e.mu.Unlock()
	if l == nil {
		return 0
	}
	return l.passes.Load()
}

// Append publishes updates to the named stream's append-only log and
// returns the new version. It fails with ErrNotAppendable when the stream
// was registered as a static (immutable) stream. Appends are admitted at any
// time — a running generation is unaffected, because it replays the
// immutable view pinned when it was sealed; the appended updates are first
// seen by generations sealed after Append returned.
func (e *Engine) Append(name string, ups []stream.Update) (int64, error) {
	return e.AppendKeyed(name, "", ups)
}

// AppendKeyed is Append under an idempotency key: for durable streams the
// key is recorded in the stream's receipt log before the batch's data, so a
// recovered engine can tell retried appends from new ones (see
// stream.Appendable.AppendKeyed). An empty key is a plain Append.
func (e *Engine) AppendKeyed(name, key string, ups []stream.Update) (int64, error) {
	e.mu.Lock()
	l, ok := e.lanes[name]
	closed := e.root.Err() != nil
	e.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("core: Append(%q): %w", name, ErrUnknownStream)
	}
	if closed {
		return 0, fmt.Errorf("core: Append(%q): %w", name, ErrEngineClosed)
	}
	if l.app == nil {
		return 0, fmt.Errorf("core: Append(%q): %w", name, ErrNotAppendable)
	}
	v, err := l.app.AppendKeyed(key, ups)
	if err != nil {
		switch {
		case errors.Is(err, stream.ErrEvictFailed):
			// The batch is published despite the eviction failure: the new
			// version is live and standing queries must see it.
			l.notifyWatchers(v)
		case errors.Is(err, stream.ErrReceiptFailed):
			// Nothing was published — the receipt journal rejected the batch
			// before publication. A server fault, and safe to retry as-is.
		case errors.Is(err, stream.ErrSealed):
			// Nothing was published — the stream is frozen mid-transfer. A
			// retryable condition, not an input error.
		default:
			// Everything else is input validation and must read as a bad
			// request, not a server fault.
			err = fmt.Errorf("%w: %w", ErrBadConfig, err)
		}
		return v, fmt.Errorf("core: Append(%q): %w", name, err)
	}
	l.notifyWatchers(v)
	return v, nil
}

// VersionOf returns the named stream's current version: the append-only
// log length for appendable streams, the static length otherwise.
func (e *Engine) VersionOf(name string) (int64, error) {
	e.mu.Lock()
	l, ok := e.lanes[name]
	e.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("core: VersionOf(%q): %w", name, ErrUnknownStream)
	}
	if l.app != nil {
		return l.app.Version(), nil
	}
	return l.st.Len(), nil
}

// Generations returns the number of admission generations served so far
// across all streams.
func (e *Engine) Generations() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, l := range e.lanes {
		total += l.generations.Load()
	}
	return total
}

// Pending returns the number of queries queued (admitted but not yet being
// served) across all streams.
func (e *Engine) Pending() int {
	e.mu.Lock()
	lanes := make([]*lane, 0, len(e.lanes))
	for _, l := range e.lanes {
		lanes = append(lanes, l)
	}
	e.mu.Unlock()
	total := 0
	for _, l := range lanes {
		l.mu.Lock()
		total += len(l.queue)
		l.mu.Unlock()
	}
	return total
}

// Close shuts the engine down: the running generation (if any) aborts its
// replay between batches, its jobs and all queued jobs fail with errors
// wrapping ErrCanceled, watches end with ErrEngineClosed, and subsequent
// Submits fail with ErrEngineClosed. Close blocks until every lane and
// watch scheduler has unwound and is idempotent.
//
// The cancel is taken under the registry mutex: Register and Watch check
// root liveness and wg.Add their goroutine inside the same critical
// section, so a goroutine can only be added before the cancel (Wait then
// waits for it) or observe the engine as closed — never race Add against a
// completing Wait.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.cancel()
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}

// enqueue appends ej to the lane's queue, or rejects it when the engine is
// closed. The closed check and the append are one critical section; the
// serve loop's final drain runs after root cancellation and takes the same
// lock, so no job can slip in behind the drain and hang its submitter.
func (l *lane) enqueue(root context.Context, ej *engineJob) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if root.Err() != nil {
		return fmt.Errorf("core: Submit on %q: %w", l.name, ErrEngineClosed)
	}
	if l.stopped {
		return fmt.Errorf("core: Submit on %q: stream unregistered: %w", l.name, ErrUnknownStream)
	}
	l.queue = append(l.queue, ej)
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

// take removes and returns the whole queue.
func (l *lane) take() []*engineJob {
	l.mu.Lock()
	defer l.mu.Unlock()
	batch := l.queue
	l.queue = nil
	return batch
}

// serve is the lane's admission loop: wait for arrivals, hold the admission
// window open while the lane is idle, then seal the batch into one
// shared-replay session generation and serve it to completion. Arrivals
// during a running generation queue up and form the next generation —
// served immediately, with no second window wait (they already waited) — so
// under load the window never throttles throughput; it only bounds
// idle-time latency.
func (e *Engine) serve(l *lane) {
	defer e.wg.Done()
	defer close(l.exited)
	for {
		select {
		case <-l.wake:
			// A closed engine drains even when a wakeup races the shutdown,
			// so queued jobs deterministically fail with ErrEngineClosed.
			if e.root.Err() != nil {
				e.drain(l)
				return
			}
		case <-e.root.Done():
			e.drain(l)
			return
		case <-l.stop:
			e.failUnregistered(l.take())
			return
		}
		batch := l.take()
		if len(batch) == 0 {
			continue
		}
		// The lane was idle when this batch's first job arrived: linger for
		// the admission window so close-together arrivals share the
		// generation.
		if e.opts.Window > 0 {
			t := time.NewTimer(e.opts.Window)
			select {
			case <-t.C:
			case <-e.root.Done():
				t.Stop()
				e.fail(batch)
				e.drain(l)
				return
			case <-l.stop:
				t.Stop()
				e.failUnregistered(batch)
				e.failUnregistered(l.take())
				return
			}
			batch = append(batch, l.take()...)
		}
		e.serveBatch(l, batch)
		// Serve everything that queued while the generation ran, without
		// re-opening the window. Stop as soon as the engine closes — the
		// outer select's drain path owns the ErrEngineClosed handoff.
		for e.root.Err() == nil {
			more := l.take()
			if len(more) == 0 {
				break
			}
			e.serveBatch(l, more)
		}
	}
}

// serveBatch serves one sealed admission batch as one or more generations.
// Jobs pinned to an explicit version (standing-query evaluations) are
// grouped by version and served in ascending version order — chronological,
// and every watch evaluating the same version rides the same shared replay —
// then the barrier-pinned jobs form the final generation, pinned at the
// freshest version.
func (e *Engine) serveBatch(l *lane, batch []*engineJob) {
	var barrier []*engineJob
	var pins []int64
	var byPin map[int64][]*engineJob // lazily built: barrier-only batches skip it
	for _, ej := range batch {
		if ej.pin < 0 {
			barrier = append(barrier, ej)
			continue
		}
		if byPin == nil {
			byPin = make(map[int64][]*engineJob)
		}
		if _, ok := byPin[ej.pin]; !ok {
			pins = append(pins, ej.pin)
		}
		byPin[ej.pin] = append(byPin[ej.pin], ej)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
	for _, v := range pins {
		e.runGeneration(l, byPin[v], v)
	}
	if len(barrier) == 0 {
		return
	}
	// Priority lanes (DESIGN.md §13): barrier jobs of equal priority share
	// one generation; mixed priorities split into successive generations,
	// highest first, so a high-priority tenant's query never waits on a
	// bulk tenant's replay that was admitted in the same window. The common
	// all-default batch is detected without sorting and runs exactly as it
	// always has: one generation.
	uniform := true
	for _, ej := range barrier[1:] {
		if ej.priority != barrier[0].priority {
			uniform = false
			break
		}
	}
	if uniform {
		e.runGeneration(l, barrier, pinBarrier)
		return
	}
	sort.SliceStable(barrier, func(i, j int) bool { return barrier[i].priority > barrier[j].priority })
	for start := 0; start < len(barrier); {
		end := start + 1
		for end < len(barrier) && barrier[end].priority == barrier[start].priority {
			end++
		}
		e.runGeneration(l, barrier[start:end], pinBarrier)
		start = end
	}
}

// drain fails every queued job after the engine has been closed.
func (e *Engine) drain(l *lane) {
	e.fail(l.take())
}

// fail rejects jobs that will never run because the engine closed.
func (e *Engine) fail(batch []*engineJob) {
	for _, ej := range batch {
		ej.err = fmt.Errorf("core: engine closed before job ran: %w", ErrEngineClosed)
		close(ej.done)
	}
}

// failUnregistered rejects jobs that will never run because their lane was
// unregistered out from under them.
func (e *Engine) failUnregistered(batch []*engineJob) {
	for _, ej := range batch {
		ej.err = fmt.Errorf("core: stream unregistered before job ran: %w", ErrUnknownStream)
		close(ej.done)
	}
}

// runGeneration serves one sealed batch with a fresh shared-replay session
// over the lane's stream, pinned at the version current at the barrier (or
// at the explicit pin, for standing-query evaluations): every job of the
// generation sees the identical prefix, so results are bit-identical to
// standalone runs at the pinned (seed, version) regardless of concurrent
// appends. The generation's context is canceled when the engine closes, or
// as soon as every submitter in the batch has gone away — there is no point
// finishing a replay nobody is listening to. Job-level results and errors
// land on each job's handle; Submit surfaces them.
func (e *Engine) runGeneration(l *lane, batch []*engineJob, pin int64) {
	gctx, gcancel := context.WithCancel(e.root)
	defer gcancel()

	// Auto-abort: count down the batch's cancellable submitter contexts; if
	// they all fire the generation is canceled. Jobs submitted with a
	// non-cancellable context keep the generation alive unconditionally, so
	// the counter can only reach zero when every job had a Done channel.
	remaining := int64(len(batch))
	for _, ej := range batch {
		if ej.ctx.Done() == nil {
			continue
		}
		stop := context.AfterFunc(ej.ctx, func() {
			if atomic.AddInt64(&remaining, -1) == 0 {
				gcancel()
			}
		})
		defer stop()
	}

	var st stream.Stream
	var version int64
	if pin < 0 {
		st, version = l.pin()
	} else {
		var err error
		st, err = l.pinAt(pin)
		if err != nil {
			for _, ej := range batch {
				ej.err = fmt.Errorf("core: pinned generation at version %d: %w", pin, err)
				close(ej.done)
			}
			return
		}
		version = pin
	}
	s := NewSession(st)
	for _, ej := range batch {
		ej.h = s.SubmitContext(ej.ctx, ej.job)
		ej.h.version = version
	}
	// Per-job errors are read from the handles; the session-level first
	// error adds nothing here.
	_ = s.RunContext(gctx)
	l.generations.Add(1)
	for _, ej := range batch {
		close(ej.done)
	}
}
