package sketch

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// referenceUpdateTerm is the per-update loop UpdateFeed replaced, kept as
// the reference the kernel must match cell for cell: two Hash64 per
// repetition, a geometric level walk with the rehash and the fingerprint
// reduction as data-dependent branches.
func referenceUpdateTerm(s *L0Sampler, key uint64, delta int64, term uint64) {
	if delta == 0 {
		return
	}
	keyDelta := delta * int64(key)
	for rep := 0; rep < s.reps; rep++ {
		deep := bits.LeadingZeros64(Hash64(s.seed+uint64(rep)*0x9e3779b9, key))
		if deep >= s.levels {
			deep = s.levels - 1
		}
		bh := Hash64(s.seed^0xabcdef^uint64(rep), key)
		avail := 64
		for level := 0; level <= deep; level++ {
			if avail < s.bucketBits {
				bh = splitmix64(bh + 0x9e3779b97f4a7c15)
				avail = 64
			}
			b := int(bh & s.bucketMask)
			bh >>= uint(s.bucketBits)
			avail -= s.bucketBits
			c := s.cell(rep, level, b)
			c.count += delta
			c.keySum += keyDelta
			c.fp += term
			if c.fp >= mersenne61 {
				c.fp -= mersenne61
			}
		}
	}
}

// Under feedSeed these keys hash to level 22 or deeper in repetition 0, which
// a random key does with probability 2^-22: they walk every level of the
// pass engine's geometry at small n (22 levels, where 8 buckets rehash at
// level 21) and cross every rehash boundary. TestUpdateFeedDeepWalk checks
// that they still do.
const feedSeed = 16

var deepKeys = [...]uint64{1574822, 8174537, 9639220}

// randomFeed draws n filled entries over a small key universe (so keys
// repeat and cancel), with deltas in [-2, 2] including zero; every 16th key
// is a deep one.
func randomFeed(rng *rand.Rand, z uint64, n int) []FeedEntry {
	feed := make([]FeedEntry, n)
	for i := range feed {
		key := uint64(rng.Intn(4 * n))
		if i%16 == 0 {
			key = deepKeys[rng.Intn(len(deepKeys))]
		}
		feed[i] = FeedEntry{Key: key, Delta: int64(rng.Intn(5)) - 2}
	}
	FillFeed(z, feed)
	return feed
}

// TestUpdateFeedMatchesReference: over every geometry that changes the
// kernel's control flow — Buckets 256 and 65536 rehash mid-walk at levels 8
// and 4, Buckets 2 never does — UpdateFeed leaves the cells, Sample and a
// Clone identical to the per-update reference, whole, split anywhere, or one
// entry at a time through UpdateTerm. (Geometries over 2^21 cells, 50 MB a
// sampler, are left out: with 65536 buckets that keeps 4 levels at any Reps
// and 22 levels at Reps 1.)
func TestUpdateFeedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, reps := range []int{1, 2, 3} {
		for _, buckets := range []int{2, 8, 256, 65536} {
			for _, levels := range []int{4, 22, 44} {
				if reps*buckets*levels > 1<<21 {
					continue
				}
				t.Run(fmt.Sprintf("reps=%d/buckets=%d/levels=%d", reps, buckets, levels), func(t *testing.T) {
					cfg := L0Config{Levels: levels, Buckets: buckets, Reps: reps}
					z := RandomFieldBase(rng.Uint64())
					feed := randomFeed(rng, z, 300)
					want := NewL0SamplerWithBase(feedSeed, z, cfg)
					for _, e := range feed {
						referenceUpdateTerm(want, e.Key, e.Delta, e.Term)
					}
					wantKey, wantOK := want.Sample()

					var sc L0Scratch
					got := NewL0SamplerWithBase(feedSeed, z, cfg)
					check := func(name string, s *L0Sampler) {
						if s.seed != want.seed || s.z != want.z || !slices.Equal(s.cells, want.cells) {
							t.Errorf("%s: cells differ from the per-update reference", name)
						}
						if key, ok := s.Sample(); key != wantKey || ok != wantOK {
							t.Errorf("%s: Sample() = (%d, %v), reference (%d, %v)", name, key, ok, wantKey, wantOK)
						}
					}
					got.UpdateFeed(feed, &sc)
					check("whole feed", got)

					got.Reseed(feedSeed, z)
					for lo := 0; lo < len(feed); {
						hi := lo + rng.Intn(len(feed)-lo+1)
						got.UpdateFeed(feed[lo:hi], &sc)
						lo = hi
					}
					check("split feed", got)

					got.Reseed(feedSeed, z)
					for _, e := range feed {
						got.UpdateTerm(e.Key, e.Delta, e.Term)
					}
					check("one entry at a time", got)
				})
			}
		}
	}
}

// TestUpdateFeedDeepWalk pins that deepKeys do what they are for: the walk
// reaches the last level, past every rehash boundary.
func TestUpdateFeedDeepWalk(t *testing.T) {
	for _, buckets := range []int{8, 65536} {
		s := NewL0Sampler(feedSeed, L0Config{Levels: 22, Buckets: buckets, Reps: 1})
		for _, key := range deepKeys {
			s.Update(key, 1)
		}
		touched := 0
		for b := 0; b < s.buckets; b++ {
			touched += int(s.cell(0, 21, b).count)
		}
		if touched != len(deepKeys) {
			t.Errorf("buckets=%d: %d of %d deep keys reached level 21", buckets, touched, len(deepKeys))
		}
	}
}
