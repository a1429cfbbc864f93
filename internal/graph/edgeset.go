package graph

import "math/bits"

// MaxVertices bounds a graph's vertex count: vertex IDs must fit in 32 bits
// for an edge to pack into one uint64 key of the edge set.
const MaxVertices = 1 << 32

// edgeSet is an open-addressing hash set of undirected edges, each packed
// into its EdgeKey, u<<32 | v with u < v. Key 0 would be the self-loop
// (0,0), which is never stored, so 0 marks an empty slot. The table has a
// power-of-two size, load at most ½ and linear probing; deletion shifts the
// rest of a probe chain back, so no tombstones are left behind.
type edgeSet struct {
	slots []uint64
	count int64
	shift uint // 64 - log2(len(slots))
}

// home is the slot k's probe chain starts at: Fibonacci hashing, which
// takes the product's top bits, so both endpoints reach the index.
func (s *edgeSet) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> s.shift)
}

// find returns the slot holding k, or the empty slot ending its probe chain.
// The table must be non-empty.
func (s *edgeSet) find(k uint64) int {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return i
}

func (s *edgeSet) has(k uint64) bool {
	return len(s.slots) > 0 && s.slots[s.find(k)] == k
}

// insert adds k and reports whether it was absent.
func (s *edgeSet) insert(k uint64) bool {
	if 2*(s.count+1) > int64(len(s.slots)) {
		s.grow()
	}
	i := s.find(k)
	if s.slots[i] == k {
		return false
	}
	s.slots[i] = k
	s.count++
	return true
}

// remove deletes k and reports whether it was present. Each later key of
// the probe chain whose home does not lie cyclically in (hole, its slot]
// moves back into the hole, which keeps every chain unbroken.
func (s *edgeSet) remove(k uint64) bool {
	if len(s.slots) == 0 {
		return false
	}
	hole := s.find(k)
	if s.slots[hole] != k {
		return false
	}
	mask := len(s.slots) - 1
	for j := (hole + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		h := s.home(s.slots[j])
		if (j > hole && (h <= hole || h > j)) || (j < hole && h <= hole && h > j) {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = 0
	s.count--
	return true
}

// grow doubles the table (16 slots at first) and re-inserts every key.
func (s *edgeSet) grow() {
	old := s.slots
	size := 16
	if len(old) > 0 {
		size = 2 * len(old)
	}
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			s.slots[s.find(k)] = k
		}
	}
}
