// Package keytab numbers the distinct uint64 keys of a set — queried
// vertices, packed edge keys, tuple hashes — 0, 1, 2, … in first-insertion
// order, so per-key state lives in flat arrays beside the table.
package keytab

import (
	"math/bits"
	"slices"
	"unsafe"

	"streamcount/internal/pool"
)

// Table maps distinct uint64 keys to dense indices in first-insertion
// order. It is an open-addressing table (linear probing, power-of-two slot
// count, load at most 1/2, multiplicative hash) whose size follows the number
// of distinct keys and never the key universe. Reset keeps the slots, so a
// reused table allocates only when it holds more keys than it ever has. Dense
// indices are int32: a table holds fewer than 2³¹ distinct keys. The zero
// Table is empty; Find needs a Table that has held a key or been ResetFor.
type Table struct {
	slots []slot
	n     int // distinct keys held
	shift uint8
}

// slot is one table cell; ref is the dense index plus one, 0 when empty.
type slot struct {
	key uint64
	ref int32
}

const (
	minSlots = 16
	hashMul  = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
)

// Len returns the number of distinct keys held.
func (t *Table) Len() int { return t.n }

// Bytes returns the memory the slots hold, by capacity.
func (t *Table) Bytes() int64 { return int64(cap(t.slots)) * int64(unsafe.Sizeof(slot{})) }

// Reset empties the table. A table already empty is clear, so a set that
// held no keys since the last Reset pays nothing for it.
func (t *Table) Reset() {
	if t.n != 0 {
		clear(t.slots)
		t.n = 0
	}
}

// ResetFor empties the table at the slot count n keys need, so a table that
// serves many key sets in turn clears what the set at hand takes, not what
// the largest ever did; the slots beyond stay allocated.
func (t *Table) ResetFor(n int) {
	size := max(minSlots, 1<<bits.Len(uint(2*max(n, 1)-1)))
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	clear(t.slots)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

// Dirty smears the slots with sentinels, every one non-empty, and makes the
// next Reset clear them.
func (t *Table) Dirty() {
	pool.Dirty(t.slots, slot{key: 0xdeaddeaddeaddead, ref: 0x5a5a5a5a})
	t.n = -1
}

// Find returns key's dense index, or -1 when the table does not hold it.
func (t *Table) Find(key uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := key * hashMul >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return -1
		}
		if s.key == key {
			return s.ref - 1
		}
	}
}

// Insert returns key's dense index, assigning the next one, Len() before
// the call, if key is new.
func (t *Table) Insert(key uint64) int32 {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := key * hashMul >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			t.n++
			*s = slot{key: key, ref: int32(t.n)}
			return s.ref - 1
		}
		if s.key == key {
			return s.ref - 1
		}
	}
}

// grow doubles the slot count and re-places every held key; dense indices
// do not change.
func (t *Table) grow() {
	old := t.slots
	size := max(2*len(old), minSlots)
	t.slots = make([]slot, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.key * hashMul >> t.shift
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
