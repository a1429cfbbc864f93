package sketch

import "math"

// ReservoirBank holds the reservoirs of one query round as a contiguous
// struct-of-arrays: slot i's sample, stream position, next-accept index and
// RNG state live at index i of four flat slices instead of in a
// heap-allocated Reservoir. A round with thousands of RandomEdge queries
// (one reservoir per FGP trial edge) then costs zero allocations after the
// bank's slices have grown once, and a batch is offered to a whole block of
// slots in one accept-major sweep (OfferKeysRange): every slot still to
// accept inside the batch takes one accept step per turn of the loop, so
// the steps of independent slots — a SplitMix64 draw and a divide each —
// overlap instead of forming one dependent chain per slot.
//
// Each slot draws the bit-identical accept sequence of
// NewReservoirSeeded(seed): the skip draw replicates math/rand's
// (*Rand).Float64 over a SplitMix64 source exactly (including its f==1
// re-draw), so banked and heap reservoirs are interchangeable: the watch
// fast path answers from a heap Reservoir what a streaming pass answers from
// a slot.
type ReservoirBank struct {
	state []uint64 // splitmix64 RNG state per slot
	item  []uint64 // current sample
	count []int64  // items offered
	next  []int64  // 1-based index of the next item to accept

	// active[lo:hi) is the scratch of OfferKeysRange(lo, hi): the slots still
	// accepting. Sweeps of disjoint blocks never share an element.
	active []int32
}

// Reset re-arms the bank with n unseeded slots, reusing its backing arrays.
// Every slot must be seeded (Seed) before use; Reset itself clears all slot
// state so a recycled bank cannot leak a previous round's samples.
func (b *ReservoirBank) Reset(n int) {
	if cap(b.state) < n {
		b.state = make([]uint64, n)
		b.item = make([]uint64, n)
		b.count = make([]int64, n)
		b.next = make([]int64, n)
		b.active = make([]int32, n)
	} else {
		b.state = b.state[:n]
		b.item = b.item[:n]
		b.count = b.count[:n]
		b.next = b.next[:n]
		b.active = b.active[:n]
	}
	clear(b.state)
	clear(b.item)
	clear(b.count)
	for i := range b.next {
		b.next[i] = 1
	}
}

// Len returns the number of slots.
func (b *ReservoirBank) Len() int { return len(b.state) }

// Seed arms slot i exactly like NewReservoirSeeded(seed).
func (b *ReservoirBank) Seed(i int, seed uint64) {
	b.state[i] = seed
	b.item[i] = 0
	b.count[i] = 0
	b.next[i] = 1
}

// OfferKeys presents a batch of stream items to slot i, with the same
// skip-sampling contract as Reservoir.OfferKeys: bit-identical to offering
// every key in order, in O(accepts) amortized time.
func (b *ReservoirBank) OfferKeys(i int, keys []uint64) { b.OfferKeysRange(i, i+1, keys) }

// OfferKeysRange is OfferKeys for every slot of [lo, hi) at once. One
// branch-free pass lists the slots whose next accept falls inside the batch;
// then each turn of the loop performs one accept step for every listed slot
// — take the sample, draw, jump next to ⌈next/u⌉ — and keeps the slots that
// accept again. Each slot owns its RNG, so the interleaving changes no draw.
// The draw is rand.New(NewSplitMix64(state)).Float64() bit for bit: one
// SplitMix64 step, the Int63 truncation, the /2^63 conversion, and a re-draw
// where math/rand re-draws (rounding hit 1.0) or the reservoir does (u == 0).
func (b *ReservoirBank) OfferKeysRange(lo, hi int, keys []uint64) {
	state, item, count, next := b.state, b.item, b.count, b.next
	live := b.active[lo:hi]
	nk := int64(len(keys))
	n := 0
	for i := lo; i < hi; i++ {
		end := count[i] + nk
		count[i] = end
		live[n] = int32(i)
		n += int(uint64(next[i]-end-1) >> 63) // next <= end
	}
	for n > 0 {
		live = live[:n]
		n = 0
		for _, i := range live {
			cnt, end := next[i], count[i]
			item[i] = keys[cnt-(end-nk)-1]
			s := state[i] + 0x9e3779b97f4a7c15
			u := float64(int64(splitmix64(s)>>1)) / (1 << 63)
			for u == 0 || u == 1 {
				s += 0x9e3779b97f4a7c15
				u = float64(int64(splitmix64(s)>>1)) / (1 << 63)
			}
			state[i] = s
			nx := int64(math.Ceil(float64(cnt) / u))
			if nx <= cnt {
				nx = cnt + 1
			}
			next[i] = nx
			live[n] = i
			n += int(uint64(nx-end-1) >> 63)
		}
	}
}

// Sample returns slot i's sampled item and whether its stream was
// non-empty.
func (b *ReservoirBank) Sample(i int) (uint64, bool) {
	return b.item[i], b.count[i] > 0
}

// Dirty smears the bank's full backing capacity with loud sentinels. It is
// a pool-debug hook (pool.DebugDirty): a later Reset that failed to re-arm
// a slot then yields wildly wrong samples instead of coincidentally
// plausible stale ones.
func (b *ReservoirBank) Dirty() {
	for _, s := range [][]uint64{b.state[:cap(b.state)], b.item[:cap(b.item)]} {
		for i := range s {
			s[i] = 0xdeaddeaddeaddead
		}
	}
	for _, s := range [][]int64{b.count[:cap(b.count)], b.next[:cap(b.next)]} {
		for i := range s {
			s[i] = -0x5a5a5a5a5a5a5a5a
		}
	}
	active := b.active[:cap(b.active)]
	for i := range active {
		active[i] = -0x5a5a5a5a
	}
}
