package sketch

import (
	"math"
	"math/rand"
)

// Reservoir maintains a uniform sample of one item from an insertion-only
// stream using O(1) words (reservoir sampling). It implements the f1
// (uniform random edge) query of Theorem 9's emulation.
//
// It uses skip sampling: instead of one coin per item, the index of the
// next accepted item is drawn directly (given the current accept position
// t0, the next accept T satisfies P(T > t) = t0/t, so T = ⌈t0/U⌉ for
// uniform U), costing O(log m) random draws per stream instead of O(m).
type Reservoir struct {
	rng   *rand.Rand
	src   *SplitMix64 // rng's source when the reservoir owns it, for Reset to reseed
	item  uint64
	count int64
	next  int64 // index (1-based) of the next item to accept
}

// NewReservoir returns an empty reservoir drawing randomness from rng.
func NewReservoir(rng *rand.Rand) *Reservoir {
	return &Reservoir{rng: rng, next: 1}
}

// NewReservoirSeeded returns an empty reservoir over a private splitmix64
// source seeded with seed. It draws the same accept sequence as
// NewReservoir(rand.New(NewSplitMix64(seed))), but retains the source so
// Reset can reseed it in place.
func NewReservoirSeeded(seed uint64) *Reservoir {
	src := NewSplitMix64(seed)
	return &Reservoir{rng: rand.New(src), src: src, next: 1}
}

// Reset re-arms the reservoir over a private splitmix64 source seeded with
// seed, reusing its allocations: the result is bit-identical in every
// observable way to a fresh NewReservoirSeeded(seed). Reservoirs built with
// an external *rand.Rand (NewReservoir) allocate their source on first
// Reset.
func (r *Reservoir) Reset(seed uint64) {
	if r.src == nil {
		r.src = NewSplitMix64(seed)
		r.rng = rand.New(r.src)
	} else {
		r.src.Reseed(seed)
	}
	r.item = 0
	r.count = 0
	r.next = 1
}

// Offer presents the next stream item to the reservoir.
func (r *Reservoir) Offer(item uint64) {
	r.count++
	if r.count != r.next {
		return
	}
	r.item = item
	u := r.rng.Float64()
	for u == 0 {
		u = r.rng.Float64()
	}
	next := int64(math.Ceil(float64(r.count) / u))
	if next <= r.count {
		next = r.count + 1
	}
	r.next = next
}

// OfferKeys presents a whole batch of stream items at once. It is
// equivalent to calling Offer on every key in order — the same accepts
// happen and the same random draws are made, so the final state is
// bit-identical — but skip sampling lets it jump straight to the accepted
// positions, costing O(accepts) instead of O(len(keys)). This is what makes
// thousands of reservoirs per pass affordable: each consumes a batch in
// amortized O(1).
func (r *Reservoir) OfferKeys(keys []uint64) {
	base := r.count
	end := base + int64(len(keys))
	for r.next <= end {
		r.item = keys[r.next-base-1]
		cnt := r.next
		u := r.rng.Float64()
		for u == 0 {
			u = r.rng.Float64()
		}
		next := int64(math.Ceil(float64(cnt) / u))
		if next <= cnt {
			next = cnt + 1
		}
		r.next = next
	}
	r.count = end
}

// Sample returns the sampled item and whether the stream was non-empty.
func (r *Reservoir) Sample() (uint64, bool) {
	return r.item, r.count > 0
}

// Count returns the number of items offered.
func (r *Reservoir) Count() int64 { return r.count }
