// Package pool is the repository's one pool discipline: a typed wrapper
// around sync.Pool for the pass engine's per-trial and per-round scratch
// (reservoir banks, ℓ0 cell arrays, FGP trial slots, feed buffers).
//
// Pooling scratch is only sound when "reset" is provably equivalent to
// "fresh allocation": an estimator served from a recycled buffer must be
// bit-identical to one served from a zero-value allocation (DESIGN.md §12).
// The package therefore builds the proof obligation into the API:
//
//   - every Pool is constructed with the reset function that re-initializes
//     a recycled value, and Get always runs it — there is no way to obtain
//     a pooled value that skipped its reset;
//   - SetDebug(DebugDisable) turns every Get into a fresh allocation, giving
//     tests the ground-truth run to compare against;
//   - SetDebug(DebugDirty) smears recycled values with sentinel bytes
//     before the reset runs, so a reset that forgets a field produces loudly
//     wrong results instead of coincidentally right ones. Pool hygiene tests
//     run the same workload under all three modes and assert bit-equality.
//
// Pools are safe for concurrent use. Like sync.Pool, inventory is dropped
// under GC pressure; correctness never depends on a hit.
package pool

import (
	"sync"
	"sync/atomic"
)

// Debug modes, set process-wide by SetDebug. The zero value is normal
// pooled operation.
const (
	// DebugOff is normal operation: recycled values are reset and reused.
	DebugOff int32 = iota
	// DebugDisable makes every Get allocate fresh, bypassing the pool: the
	// ground truth that pooled runs are compared against.
	DebugDisable
	// DebugDirty smears every recycled value with sentinels (via the pool's
	// dirty function) before resetting it, so incomplete resets are loud.
	DebugDirty
)

var debug atomic.Int32

// SetDebug switches the process-wide pool debug mode and returns the
// previous mode. Tests use it to compare pooled, fresh and dirtied runs.
func SetDebug(mode int32) int32 { return debug.Swap(mode) }

// DebugMode returns the current process-wide debug mode.
func DebugMode() int32 { return debug.Load() }

// A Pool recycles values of type *T. New must return a ready-to-use fresh
// value; reset must restore a recycled value to a state indistinguishable
// from New's; dirty (optional, used by DebugDirty) should overwrite the
// value's memory with sentinels while keeping it structurally valid for
// reset.
type Pool[T any] struct {
	p     sync.Pool
	new   func() *T
	reset func(*T)
	dirty func(*T)
}

// New constructs a pool from the value's lifecycle functions. dirty may be
// nil, in which case DebugDirty simply falls back to reset-only reuse for
// this pool.
func New[T any](newFn func() *T, reset func(*T), dirty func(*T)) *Pool[T] {
	pl := &Pool[T]{new: newFn, reset: reset, dirty: dirty}
	pl.p.New = func() any { return nil }
	return pl
}

// Get returns a ready-to-use value: a recycled one after its reset (and,
// under DebugDirty, after sentinel-smearing), or a fresh one when the pool
// is empty or disabled.
func (pl *Pool[T]) Get() *T {
	if debug.Load() == DebugDisable {
		return pl.new()
	}
	v, _ := pl.p.Get().(*T)
	if v == nil {
		return pl.new()
	}
	if debug.Load() == DebugDirty && pl.dirty != nil {
		pl.dirty(v)
	}
	pl.reset(v)
	return v
}

// Put recycles v. The caller must not touch v afterwards.
func (pl *Pool[T]) Put(v *T) {
	if v == nil || debug.Load() == DebugDisable {
		return
	}
	pl.p.Put(v)
}

// Dirty overwrites a slice with the given sentinel value (full capacity, so
// stale tail elements past the logical length are smeared too).
func Dirty[T any](s []T, sentinel T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = sentinel
	}
}

// DirtyInt64 overwrites a slice with an int64 sentinel (full capacity, so
// stale tail elements past the logical length are smeared too).
func DirtyInt64(s []int64) { Dirty(s, -0x5a5a5a5a5a5a5a5a) }

// DirtyUint64 overwrites a slice with a uint64 sentinel (full capacity).
func DirtyUint64(s []uint64) { Dirty(s, 0xdeaddeaddeaddead) }
