// Package sketch provides the small-space randomized data structures the
// streaming algorithms are built from: reservoir samplers for insertion-only
// streams and ℓ0-samplers (Lemma 7, Cormode–Firmani style) for turnstile
// streams, plus the hashing utilities they share.
package sketch

// splitmix64 is the SplitMix64 finalizer, a fast 64-bit mixing function with
// excellent avalanche behaviour. It is used as a seeded hash: distinct seeds
// give (empirically) independent hash functions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 hashes key under the given seed.
func Hash64(seed, key uint64) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(key))
}

// SplitMix64 is a rand.Source64 backed by the SplitMix64 generator. It is
// the pass engine's per-instance RNG: every parallel unit of work (a sampler
// instance, an FGP trial) owns one, seeded deterministically from the run
// seed and the unit's index, so results are bit-identical at any worker
// count. It is tiny (8 bytes of state) and allocation-free to advance.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a source seeded with the given state.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 implements rand.Source64.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitmix64(s.state)
}

// Int63 implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// Reseed restarts the source from seed, exactly as if freshly constructed
// with NewSplitMix64(seed). It is the substrate of the pool discipline
// (DESIGN.md §12): a recycled sampler reseeds its source in place, and a
// *rand.Rand wrapping it replays the identical draw sequence a fresh
// source would (math/rand keeps no generator state of its own outside
// Read, which the engine never uses).
func (s *SplitMix64) Reseed(seed uint64) { s.state = seed }

// mersenne61 is the Mersenne prime 2^61 - 1, the fingerprint field modulus.
const mersenne61 = (1 << 61) - 1

// mulmod61 returns a*b mod 2^61-1 for a, b < 2^61-1, using 128-bit
// intermediate arithmetic.
func mulmod61(a, b uint64) uint64 {
	hi, lo := mul64(a, b)
	// a*b = hi*2^64 + lo. Reduce modulo 2^61-1 using 2^61 ≡ 1:
	// hi*2^64 = hi*8*2^61 ≡ hi*8, and lo = (lo >> 61)*2^61 + (lo & M) ≡
	// (lo >> 61) + (lo & M).
	res := hi<<3 | lo>>61
	res += lo & mersenne61
	if res >= mersenne61 {
		res -= mersenne61
	}
	// hi can be close to 2^61, so hi<<3 may exceed the modulus once more.
	for res >= mersenne61 {
		res -= mersenne61
	}
	return res
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// powmod61 returns base^exp mod 2^61-1.
func powmod61(base, exp uint64) uint64 {
	base %= mersenne61
	result := uint64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result = mulmod61(result, base)
		}
		base = mulmod61(base, base)
		exp >>= 1
	}
	return result
}
