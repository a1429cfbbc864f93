// Package rcache is the cross-generation result cache: a bounded,
// size-accounted memo of completed query results keyed by
// (stream name, stream version, canonical query fingerprint, resolved
// seed). The determinism contract makes the cache safe by construction —
// every result is a pure function of its key, bit-identical at any
// parallelism — so a hit is indistinguishable from a recomputation and
// appends invalidate nothing: entries are pinned to the version they were
// computed at, and a new version is simply a new key. Eviction is purely
// capacity LRU: since no entry can go stale, expiring one would only
// recompute the same bits.
//
// The package also carries the singleflight layer: N concurrent identical
// misses elect one leader to run the job; the followers wait and share its
// result (DESIGN.md §13).
package rcache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"streamcount/internal/wire"
)

// entryOverhead is the accounted fixed cost of one cache entry beyond the
// caller-reported value size: key, list element, map slot, bookkeeping.
const entryOverhead = 128

// Key identifies one memoized result. Two submissions collide exactly when
// they are guaranteed byte-identical: same stream prefix (name + version),
// same canonical query (fingerprint over the wire form, which excludes
// seed, parallelism and stream), and same resolved seed.
type Key struct {
	Stream      string
	Version     int64
	Fingerprint uint64
	Seed        int64
}

type entry struct {
	key  Key
	val  any
	size int64
	elem *list.Element
}

// Flight is one in-progress singleflight computation. The leader runs the
// job and Completes the flight; followers select on Done and read Value.
type Flight struct {
	done chan struct{}
	val  any
	err  error
}

// Done closes when the leader completed (successfully or not).
func (f *Flight) Done() <-chan struct{} { return f.done }

// Value returns the leader's result. Valid only after Done is closed.
func (f *Flight) Value() (any, error) { return f.val, f.err }

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	ResidentBytes int64
	CapacityBytes int64
	Entries       int
}

// Cache is the bounded result cache. A nil *Cache is a valid, always-miss,
// never-stores cache, so callers need no enabled checks beyond nil tests.
type Cache struct {
	capacity int64

	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[Key]*Flight

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New builds a cache bounded at capacityBytes. A non-positive capacity
// returns nil: the disabled cache.
func New(capacityBytes int64) *Cache {
	if capacityBytes <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacityBytes,
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		flights:  make(map[Key]*Flight),
	}
}

// Get returns the memoized value for k, if resident.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	v := e.val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Peek is Get without the hit/miss accounting: the singleflight leader's
// re-check between its miss and its cold run (the flight it replaced may
// have populated the entry after the leader's Get missed), kept out of the
// counters so one logical lookup is never double-counted.
func (c *Cache) Peek(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.val, true
}

// Put memoizes v under k, charging size bytes (plus fixed overhead)
// against the capacity and evicting least-recently-used entries to make
// room. A value that alone exceeds the capacity is not stored.
func (c *Cache) Put(k Key, v any, size int64) {
	if c == nil {
		return
	}
	size += entryOverhead + int64(len(k.Stream))
	if size > c.capacity {
		return
	}
	c.mu.Lock()
	if old, ok := c.entries[k]; ok {
		c.removeLocked(old)
	}
	e := &entry{key: k, val: v, size: size}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.bytes += size
	for c.bytes > c.capacity {
		back := c.lru.Back()
		if back == nil || back == e.elem {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// removeLocked drops e from the map, LRU list and byte accounting. Caller
// holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.size
}

// DropStream removes every entry pinned to the named stream — the
// unregister path, where the name may be reused by a different stream
// whose version 300 is a different prefix than the dead one's version 300.
func (c *Cache) DropStream(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for k, e := range c.entries {
		if k.Stream == name {
			c.removeLocked(e)
		}
	}
	c.mu.Unlock()
}

// Join enters the singleflight for k. The first caller becomes the leader
// (isLeader true): it must run the computation and call Complete. Later
// callers receive the leader's Flight and isLeader false. On a nil cache
// every caller is a leader with a nil flight (no deduplication).
func (c *Cache) Join(k Key) (*Flight, bool) {
	if c == nil {
		return nil, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[k]; ok {
		return f, false
	}
	f := &Flight{done: make(chan struct{})}
	c.flights[k] = f
	return f, true
}

// Complete resolves a flight the caller leads: records the outcome, wakes
// the followers, and retires the flight so the next miss starts fresh.
// Safe on a nil cache / nil flight (the no-dedup path).
func (c *Cache) Complete(k Key, f *Flight, v any, err error) {
	if c == nil || f == nil {
		return
	}
	c.mu.Lock()
	if cur, ok := c.flights[k]; ok && cur == f {
		delete(c.flights, k)
	}
	c.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	bytes, entries := c.bytes, len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		ResidentBytes: bytes,
		CapacityBytes: c.capacity,
		Entries:       entries,
	}
}

// --- canonical query fingerprint ---

// FNV-64a parameters, inlined so fingerprinting allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	// Length prefix keeps adjacent string fields from aliasing
	// ("ab","c" vs "a","bc").
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Fingerprint hashes the canonical wire form of a query down to the
// 64-bit key component. It covers exactly the fields that select the
// algorithm and its budgets — Kind, Pattern (internal/pattern's canonical
// name), R, Threshold, Epsilon, Trials, LowerBound, EdgeBound, MaxTrials,
// Lambda — and deliberately excludes Stream and Seed (separate key fields)
// and Parallelism (the determinism contract makes results independent of
// it). The zero value is reserved as the "uncacheable" sentinel; a real
// hash of zero is mapped to one.
func Fingerprint(q wire.Query) uint64 {
	h := uint64(fnvOffset)
	h = fnvString(h, q.Kind)
	h = fnvString(h, q.Pattern)
	h = fnvUint64(h, uint64(q.R))
	h = fnvUint64(h, math.Float64bits(q.Threshold))
	h = fnvUint64(h, math.Float64bits(q.Epsilon))
	h = fnvUint64(h, uint64(q.Trials))
	h = fnvUint64(h, math.Float64bits(q.LowerBound))
	h = fnvUint64(h, uint64(q.EdgeBound))
	h = fnvUint64(h, uint64(q.MaxTrials))
	h = fnvUint64(h, uint64(q.Lambda))
	if h == 0 {
		h = 1
	}
	return h
}
