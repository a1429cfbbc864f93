package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"streamcount/internal/oracle"
	"streamcount/internal/transform"
)

// DefaultWatchCheckpointBytes is the default capacity of the engine's watch
// checkpoint cache (EngineOptions.WatchCheckpointBytes = 0).
const DefaultWatchCheckpointBytes int64 = 64 << 20

// watchCheckpoints is the engine-wide checkpoint cache behind the standing
// queries' O(Δ) fast path (DESIGN.md §10). Each insertion-only appendable
// lane gets one entry holding a position-stamped transform.PrefixIndex;
// every watch event extends the lane's index by only the updates appended
// since the last event (View.ForEachBatchFrom) and answers its query rounds
// from the index at its pinned version, instead of replaying the whole
// prefix. The index is seed-independent — per-version derived seeds consume
// it read-only — so one entry serves every watch and every version on the
// lane.
//
// Residency is bounded: when the accounted bytes exceed the capacity, whole
// lane entries are evicted least-recently-used; an evicted lane's next
// event rebuilds the index from a full replay (counted as a miss). A lane
// whose index alone exceeds the capacity is disabled — its watches fall
// back to cold shared-replay evaluation permanently rather than rebuilding
// an uncacheable index per event.
//
// Lock order: cache.mu and entry.mu are never held together. Eviction
// removes the map reference and the accounting under cache.mu only — an
// evaluation holding the evicted entry keeps using its private index
// safely and skips re-accounting when it finds the entry dropped.
type watchCheckpoints struct {
	capacity int64 // <= 0: cache disabled

	mu       sync.Mutex
	entries  map[string]*checkpointEntry
	bytes    int64 // sum of accounted entry sizes
	clock    int64 // LRU tick
	disabled map[string]bool

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	spills     atomic.Int64
	spillLoads atomic.Int64
}

// checkpointEntry is one lane's resident checkpoint. mu is held across
// extend-and-evaluate, serializing the lane's fast-path evaluations exactly
// as its generation loop serializes cold ones.
type checkpointEntry struct {
	mu sync.Mutex
	ix *transform.PrefixIndex

	// spill is where the entry's index is persisted on eviction (and read
	// back on the next miss). Immutable after creation; the zero value
	// disables spilling for the lane.
	spill spillTarget

	// Guarded by the cache's mu, not the entry's.
	accounted int64
	lastUsed  int64
	dropped   bool
}

func newWatchCheckpoints(capacity int64) *watchCheckpoints {
	return &watchCheckpoints{
		capacity: capacity,
		entries:  make(map[string]*checkpointEntry),
		disabled: make(map[string]bool),
	}
}

// acquire fetches or creates the lane's entry, unless the cache is off or
// the lane has been disabled.
func (c *watchCheckpoints) acquire(lane string, spill spillTarget) (*checkpointEntry, bool) {
	if c == nil || c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disabled[lane] {
		return nil, false
	}
	ent, ok := c.entries[lane]
	if !ok {
		ent = &checkpointEntry{spill: spill}
		c.entries[lane] = ent
	}
	c.clock++
	ent.lastUsed = c.clock
	return ent, true
}

// settle re-accounts an entry after an evaluation grew its index to
// newBytes, then enforces the capacity bound.
func (c *watchCheckpoints) settle(lane string, ent *checkpointEntry, newBytes int64) {
	var spillouts []*checkpointEntry
	c.mu.Lock()
	if ent.dropped {
		c.mu.Unlock()
		return // evicted while in use; its bytes are already unaccounted
	}
	c.bytes += newBytes - ent.accounted
	ent.accounted = newBytes
	c.clock++
	ent.lastUsed = c.clock
	if ent.accounted > c.capacity {
		// This lane's index alone exceeds the cache: caching it is pure
		// churn, so the lane is disabled and its watches stay on the cold
		// path. No spill either — it would be reloaded by nothing.
		c.dropLocked(lane, ent)
		c.disabled[lane] = true
		c.evictions.Add(1)
		c.mu.Unlock()
		return
	}
	for c.bytes > c.capacity {
		var victim *checkpointEntry
		victimLane := ""
		for name, e := range c.entries {
			if e == ent {
				continue // never evict the entry just used
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim, victimLane = e, name
			}
		}
		if victim == nil {
			break
		}
		c.dropLocked(victimLane, victim)
		c.evictions.Add(1)
		spillouts = append(spillouts, victim)
	}
	c.mu.Unlock()
	// Spill outside the cache lock: the entry lock is taken only after the
	// cache lock is released, preserving the never-held-together order.
	for _, v := range spillouts {
		c.spillEntry(v)
	}
}

// spillEntry persists an evicted entry's index next to its lane's
// segments, so the lane's next event warms from disk instead of a full
// replay. Best-effort: a failed write costs exactly that rebuild.
func (c *watchCheckpoints) spillEntry(ent *checkpointEntry) {
	if !ent.spill.valid() {
		return
	}
	ent.mu.Lock()
	ix := ent.ix
	ent.ix = nil
	ent.mu.Unlock()
	if ix == nil {
		return
	}
	if err := ent.spill.write(ix); err == nil {
		c.spills.Add(1)
	}
}

// loadSpill reads the lane's spilled index on a cache miss. It returns nil
// (build cold) if there is no spill, it is corrupt, or it contradicts the
// live log — a universe mismatch or an extent beyond the log's version
// means the directory no longer backs the log that wrote it, so the file
// is removed before it can mislead again.
func (c *watchCheckpoints) loadSpill(ent *checkpointEntry, n, logVersion int64) *transform.PrefixIndex {
	if !ent.spill.valid() {
		return nil
	}
	ix, err := ent.spill.read()
	if err != nil || ix == nil {
		return nil
	}
	if ix.N() != n || ix.Extent() > logVersion {
		ent.spill.remove()
		return nil
	}
	c.spillLoads.Add(1)
	return ix
}

// spillLane flushes the named lane's resident index to its spill file
// without evicting it: the transfer path's pre-seal flush, so the shipped
// directory carries a warm index. A lane with no resident entry (or no
// durable directory) is a successful no-op.
func (c *watchCheckpoints) spillLane(lane string) error {
	if c == nil || c.capacity <= 0 {
		return nil
	}
	c.mu.Lock()
	ent := c.entries[lane]
	c.mu.Unlock()
	if ent == nil || !ent.spill.valid() {
		return nil
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.ix == nil {
		return nil
	}
	if err := ent.spill.write(ent.ix); err != nil {
		return err
	}
	c.spills.Add(1)
	return nil
}

// drop removes a lane's entry (used when its index can no longer serve the
// lane, e.g. a deletion arrived). Safe to call with a never-accounted entry.
func (c *watchCheckpoints) drop(lane string, ent *checkpointEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ent.dropped {
		c.dropLocked(lane, ent)
	}
}

// dropLane removes a lane's entry (and any disabled mark) by name: the
// Unregister path, where the caller holds no entry and wants the cache to
// forget the lane entirely so a future re-registration starts clean.
func (c *watchCheckpoints) dropLane(lane string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[lane]; ok {
		c.dropLocked(lane, ent)
	}
	delete(c.disabled, lane)
}

func (c *watchCheckpoints) dropLocked(lane string, ent *checkpointEntry) {
	if c.entries[lane] == ent {
		delete(c.entries, lane)
	}
	c.bytes -= ent.accounted
	ent.accounted = 0
	ent.dropped = true
}

// WatchCheckpointStats is the cache's aggregate health snapshot.
type WatchCheckpointStats struct {
	// Hits counts fast-path evaluations served from a resident index.
	Hits int64
	// Misses counts fast-path evaluations that had to (re)build the index
	// from a full replay first — cold caches and post-eviction rebuilds.
	Misses int64
	// Evictions counts entries dropped by the capacity bound.
	Evictions int64
	// Spills counts evicted (or deliberately flushed) indexes persisted to
	// their lane's WATCHIDX file.
	Spills int64
	// SpillLoads counts misses warmed from a spilled index instead of a
	// full replay.
	SpillLoads int64
	// ResidentBytes is the accounted size of all resident indexes.
	ResidentBytes int64
	// CapacityBytes is the configured bound (0 when the cache is disabled).
	CapacityBytes int64
}

func (c *watchCheckpoints) stats() WatchCheckpointStats {
	if c == nil || c.capacity <= 0 {
		return WatchCheckpointStats{}
	}
	c.mu.Lock()
	resident := c.bytes
	c.mu.Unlock()
	return WatchCheckpointStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Spills:        c.spills.Load(),
		SpillLoads:    c.spillLoads.Load(),
		ResidentBytes: resident,
		CapacityBytes: c.capacity,
	}
}

// WatchCheckpointStats reports the engine's checkpoint-cache health.
func (e *Engine) WatchCheckpointStats() WatchCheckpointStats { return e.ckpt.stats() }

// SpillWatchCheckpoint flushes the named stream's resident checkpoint
// index to its WATCHIDX spill file without evicting it. The transfer path
// calls this just before sealing the stream so the shipped directory
// carries the warm index and the first watch event on the new owner
// extends it instead of replaying the whole prefix. A stream with no
// resident index (or no durable directory) is a successful no-op.
func (e *Engine) SpillWatchCheckpoint(name string) error {
	e.mu.Lock()
	l, ok := e.lanes[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: SpillWatchCheckpoint(%q): %w", name, ErrUnknownStream)
	}
	return e.ckpt.spillLane(l.name)
}

// indexedSessionRunner adapts transform.IndexedRunner to the job executor
// with the same cancellation and pass-accounting behavior sessionRunner
// has: the job's handle ticks one round per answered round, and
// cancellation is honored at round boundaries, so a fast-path result is
// field-for-field identical to a cold shared-replay one.
type indexedSessionRunner struct {
	inner *transform.IndexedRunner
	h     *JobHandle
	ctx   context.Context
}

func (r *indexedSessionRunner) Round(qs []oracle.Query) ([]oracle.Answer, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	ans, err := r.inner.Round(qs)
	if err != nil {
		return nil, err
	}
	r.h.rounds++
	if err := r.ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	return ans, nil
}

func (r *indexedSessionRunner) Model() oracle.Model { return r.inner.Model() }
func (r *indexedSessionRunner) Rounds() int64       { return r.inner.Rounds() }
func (r *indexedSessionRunner) Queries() int64      { return r.inner.Queries() }
func (r *indexedSessionRunner) SpaceWords() int64   { return r.inner.SpaceWords() }

// evaluateIndexed serves one watch evaluation from the lane's checkpointed
// index, if it can: the lane's prefix at v must be insertion-only and the
// cache must have (or be allowed to build) the lane's entry. served=false
// means the caller must fall back to a cold pinned submission; it never
// implies an error. When served, the returned handle is bit-identical to
// what submitPinned would have produced for the same (job, version) — the
// determinism contract is indifferent to which path evaluated the event.
func (e *Engine) evaluateIndexed(wctx context.Context, l *lane, j Job, v int64, w *Watch) (*JobHandle, error, bool) {
	if l.app == nil || v <= 0 {
		return nil, nil, false
	}
	ent, ok := e.ckpt.acquire(l.name, l.spillTarget())
	if !ok {
		return nil, nil, false
	}
	view, err := l.app.At(v)
	if err != nil || !view.InsertOnly() {
		// A deletion inside [0, v) makes the prefix un-indexable; any
		// resident index only covers an insertion-only prefix, but new
		// events on this lane must go cold from here on.
		return nil, nil, false
	}

	ent.mu.Lock()
	ix := ent.ix
	if ix == nil {
		e.ckpt.misses.Add(1)
		w.ckptMisses.Add(1)
		// An eviction (or a transfer from this stream's previous owner) may
		// have left a spilled index next to the segments; warming from it
		// turns the rebuild into an O(Δ) extension.
		if sp := e.ckpt.loadSpill(ent, view.N(), l.app.Version()); sp != nil {
			ix = sp
		} else if ix, err = transform.NewPrefixIndex(view.N()); err != nil {
			// The cold path reports the oversized universe as the job's error.
			ent.mu.Unlock()
			e.ckpt.drop(l.name, ent)
			return nil, nil, false
		}
	} else {
		e.ckpt.hits.Add(1)
		w.ckptHits.Add(1)
	}
	if ix.Extent() < v {
		if err := view.ForEachBatchFrom(ix.Extent(), ix.Extend); err != nil {
			// The suffix contradicted the index (e.g. a deletion raced the
			// insert-only check). Drop the entry and go cold.
			ent.ix = nil
			ent.mu.Unlock()
			e.ckpt.drop(l.name, ent)
			return nil, nil, false
		}
	}
	ent.ix = ix
	// Evaluate while still holding the entry: the index must not grow under
	// a reader, and serializing a lane's fast-path evaluations mirrors how
	// its generation loop serializes cold ones.
	h := e.runIndexed(wctx, ix, j, v)
	newBytes := ix.Bytes()
	ent.mu.Unlock()
	e.ckpt.settle(l.name, ent, newBytes)
	if jerr := h.Result().Err; jerr != nil {
		return h, jerr, true
	}
	return h, nil, true
}

// runIndexed executes one pinned job over the index at version v, mirroring
// runGeneration's handle plumbing without a session or replay.
func (e *Engine) runIndexed(wctx context.Context, ix *transform.PrefixIndex, j Job, v int64) *JobHandle {
	h := &JobHandle{job: j, ctx: wctx, version: v}
	ex := &executor{
		length:     v,
		insertOnly: true,
		newRunner: func(h *JobHandle, rng *rand.Rand, parallelism int) (oracle.Runner, error) {
			ir, err := transform.NewIndexedRunner(ix, v, rng)
			if err != nil {
				return nil, err
			}
			return &indexedSessionRunner{inner: ir, h: h, ctx: wctx}, nil
		},
	}
	h.res = ex.execute(h)
	return h
}
