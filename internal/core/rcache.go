package core

// Cross-generation result cache glue (DESIGN.md §13): the engine-side hooks
// around internal/rcache. The cache memoizes completed JobResults keyed by
// (lane, pinned version, canonical query fingerprint, resolved seed); the
// determinism contract — results are a pure function of that key,
// bit-identical at any parallelism — is what makes a hit indistinguishable
// from a recomputation. Appends never invalidate anything: an entry is
// pinned to the version it was computed at, and a newer prefix is a new key.

import (
	"context"

	"streamcount/internal/rcache"
)

// priorityKey carries the admission priority through a submission context.
type priorityKey struct{}

// WithPriority tags ctx with an admission priority lane for barrier-pinned
// submissions: within one admission batch, higher-priority jobs run in an
// earlier generation. 0 is the default lane; tagging with 0 is a no-op.
func WithPriority(ctx context.Context, p int) context.Context {
	if p == 0 {
		return ctx
	}
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityFromContext reads the admission priority WithPriority tagged onto
// ctx (0 when untagged).
func PriorityFromContext(ctx context.Context) int {
	p, _ := ctx.Value(priorityKey{}).(int)
	return p
}

// ResultCacheEnabled reports whether the engine was built with a result
// cache. The facade only computes query fingerprints when it is — the
// disabled engine's submit path stays allocation-identical to the
// pre-cache one.
func (e *Engine) ResultCacheEnabled() bool { return e.rc != nil }

// ResultCacheStats snapshots the result cache counters (zeros when the
// cache is disabled).
func (e *Engine) ResultCacheStats() rcache.Stats { return e.rc.Stats() }

// jobSeed resolves the seed that actually drives j's randomness — the one
// field of the job the fingerprint deliberately excludes, keyed separately.
func jobSeed(j Job) int64 {
	if j.Kind == JobCliques {
		return j.Clique.Seed
	}
	return j.Config.Seed
}

// version returns the lane's current version: the append-only log length
// for appendable lanes, the static length otherwise.
func (l *lane) version() int64 {
	if l.app != nil {
		return l.app.Version()
	}
	return l.st.Len()
}

// cacheKey builds j's cache key on lane l at pinned version v.
func cacheKey(l *lane, j Job, v int64) rcache.Key {
	return rcache.Key{Stream: l.name, Version: v, Fingerprint: j.Fingerprint, Seed: jobSeed(j)}
}

// cachedResult is one memoized completed job. res is the canonical copy:
// it is cloned on every Get so no two handles (nor the cache itself) share
// mutable slices, and rounds/version are preserved so a served-from-cache
// handle reports the exact pass accounting and pinned version its cold
// twin did — the transcript cannot tell the paths apart.
type cachedResult struct {
	job     Job
	res     JobResult
	rounds  int64
	version int64
}

func newCachedResult(h *JobHandle) *cachedResult {
	return &cachedResult{job: h.job, res: cloneJobResult(h.res), rounds: h.rounds, version: h.version}
}

// handle materializes a fresh JobHandle from the memo, indistinguishable
// from one a generation served.
func (cr *cachedResult) handle(ctx context.Context) *JobHandle {
	h := &JobHandle{job: cr.job, ctx: ctx, rounds: cr.rounds, version: cr.version}
	h.res = cloneJobResult(cr.res)
	return h
}

// size estimates the entry's accounted bytes for the cache's capacity LRU.
func (cr *cachedResult) size() int64 {
	s := int64(256)
	if cr.res.Est != nil {
		s += 64
	}
	s += int64(len(cr.res.Copy.Vertices)) * 8
	s += int64(len(cr.res.Copy.Edges)) * 16
	return s
}

// cloneJobResult deep-copies a JobResult: the estimate struct by value and
// the sampled copy's slices element-wise, so cache-served handles never
// alias each other or the resident entry.
func cloneJobResult(res JobResult) JobResult {
	if res.Est != nil {
		est := *res.Est
		res.Est = &est
	}
	res.Copy.Edges = append(res.Copy.Edges[:0:0], res.Copy.Edges...)
	res.Copy.Vertices = append(res.Copy.Vertices[:0:0], res.Copy.Vertices...)
	return res
}

// cachePut memoizes a successfully served handle. Only clean results are
// cached: errors are transient (cancellation, shutdown) and must not be
// replayed to later callers.
func (e *Engine) cachePut(k rcache.Key, h *JobHandle) *cachedResult {
	cr := newCachedResult(h)
	e.rc.Put(k, cr, cr.size())
	return cr
}

// submitCached is the memoizing submit path for fingerprinted jobs on a
// cache-enabled engine.
//
// Barrier-pinned submissions resolve their key at the lane version current
// at submission. That is linearizable: a hit returns the result the job
// would have produced had its generation sealed just before any racing
// append — a legal admission order, and the version the handle reports.
// A miss runs cold and populates at the version its generation actually
// pinned, which may be newer; the stale pre-append key is simply never
// populated (its version is no longer reachable by new submissions).
//
// Concurrent identical misses singleflight: one leader admits the job, the
// followers share its result. A leader that fails wakes the followers
// empty-handed and each falls back to a cold submission of its own —
// failures are transient (cancellation, shutdown) and must not fan out.
func (e *Engine) submitCached(ctx context.Context, l *lane, j Job, pin int64) (*JobHandle, error) {
	v := pin
	if v < 0 {
		v = l.version()
	}
	k := cacheKey(l, j, v)
	if cv, ok := e.rc.Get(k); ok {
		return cv.(*cachedResult).handle(ctx), nil
	}
	return e.submitMissed(ctx, l, j, pin, k)
}

// submitMissed is submitCached after its lookup of k missed, for callers
// that made that one counted lookup themselves.
func (e *Engine) submitMissed(ctx context.Context, l *lane, j Job, pin int64, k rcache.Key) (*JobHandle, error) {
	f, leader := e.rc.Join(k)
	if !leader {
		select {
		case <-f.Done():
			if cv, err := f.Value(); err == nil && cv != nil {
				return cv.(*cachedResult).handle(ctx), nil
			}
			// The leader failed; run this submission for real.
			return e.submitCold(ctx, l, j, pin)
		case <-ctx.Done():
			return nil, canceled(context.Cause(ctx))
		}
	}
	// A prior flight can populate the entry between this caller's miss and
	// its Join (the completed flight retires before the late joiner arrives,
	// promoting it to leader of a fresh one). Re-check before running cold so
	// that window never re-admits a generation; Peek keeps the one logical
	// lookup from double-counting in the stats.
	if cv, ok := e.rc.Peek(k); ok {
		e.rc.Complete(k, f, cv, nil)
		return cv.(*cachedResult).handle(ctx), nil
	}
	h, err := e.submitCold(ctx, l, j, pin)
	if err != nil || h.res.Err != nil {
		ferr := err
		if ferr == nil {
			ferr = h.res.Err
		}
		e.rc.Complete(k, f, nil, ferr)
		return h, err
	}
	cr := e.cachePut(cacheKey(l, j, h.version), h)
	e.rc.Complete(k, f, cr, nil)
	return h, nil
}
