package transform

import (
	"math/bits"
	"slices"

	"streamcount/internal/pool"
)

// keyTable maps the distinct uint64 keys of one round — queried vertices, or
// queried packed edge keys — to dense indices 0, 1, 2, … in first-insertion
// order, so a round's per-key state lives in flat arrays beside it. It is an
// open-addressing table (linear probing, power-of-two slot count, load at
// most 1/2, multiplicative hash) whose size follows the number of distinct
// keys and never the universe: the same structure at n = 2 000 and n = 10⁹.
// reset keeps the slots, so a reused table allocates only when a round holds
// more keys than any before it. Dense indices are int32: one round holds
// fewer than 2³¹ distinct keys (BeginRound bounds the query count
// accordingly).
type keyTable struct {
	slots []keySlot
	n     int // distinct keys held
	shift uint8
}

// keySlot is one table cell; ref is the dense index plus one, 0 when empty.
type keySlot struct {
	key uint64
	ref int32
}

const (
	keyTableMinSlots = 16
	keyHashMul       = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
)

// reset empties the table. A table the last round left empty is already
// clear, so rounds that hold no keys of this kind pay nothing for it.
func (t *keyTable) reset() {
	if t.n != 0 {
		clear(t.slots)
		t.n = 0
	}
}

// resetFor empties the table at the slot count n keys need, so a table that
// serves many key sets in turn clears what the set at hand takes, not what
// the largest ever did; the slots beyond stay allocated.
func (t *keyTable) resetFor(n int) {
	size := max(keyTableMinSlots, 1<<bits.Len(uint(2*n-1)))
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	clear(t.slots)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

// dirty smears the slots with sentinels and makes the next reset clear them.
func (t *keyTable) dirty() {
	pool.Dirty(t.slots, keySlot{key: 0xdeaddeaddeaddead, ref: 0x5a5a5a5a})
	t.n = -1
}

// find returns key's dense index, or -1 when the table does not hold it. The
// table must have held a key since it was created (len(slots) > 0).
func (t *keyTable) find(key uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := key * keyHashMul >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return -1
		}
		if s.key == key {
			return s.ref - 1
		}
	}
}

// insert returns key's dense index, assigning the next one if key is new.
func (t *keyTable) insert(key uint64) int32 {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := key * keyHashMul >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			t.n++
			*s = keySlot{key: key, ref: int32(t.n)}
			return s.ref - 1
		}
		if s.key == key {
			return s.ref - 1
		}
	}
}

// grow doubles the slot count and re-places every held key; dense indices
// do not change.
func (t *keyTable) grow() {
	old := t.slots
	size := max(2*len(old), keyTableMinSlots)
	t.slots = make([]keySlot, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.key * keyHashMul >> t.shift
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
