package sketch

import (
	"math/bits"
	"slices"
)

// L0Sampler samples a (near-)uniform element from the support of a vector
// undergoing turnstile updates (insertions and deletions), per Lemma 7
// (Cormode–Firmani). It is the substrate that makes the paper's query
// emulation work in the turnstile model (Theorem 11): a uniform random edge
// is an ℓ0-sample of the adjacency matrix, and a uniform random neighbor of
// v is an ℓ0-sample of v's adjacency list.
//
// Construction: keys are subsampled into geometric levels by a hash
// function (level j contains the keys whose hash has at least j leading
// zero bits). Each level holds a small array of 1-sparse recovery cells
// (count, key-sum, and a polynomial fingerprint over GF(2^61-1) that detects
// collisions with high probability). A query walks levels from sparsest to
// densest, recovers the first non-empty level, and returns the recovered key
// with the minimum hash — the global minimum-hash key of the support, which
// is uniform. Independent repetitions drive the failure probability down.
//
// Updates: the sketch is linear — a cell is a sum over the updates that hash
// to it — and its hashes are pure functions of (seed, repetition, key), so
// the cells depend on the net vector of the updates applied — the sum of the
// deltas per key — and on nothing else: not their order, not how they were
// batched, not deltas that cancel. UpdateFeed uses the first two freedoms, and
// its callers the third (TurnstileRunner nets a feed by key before filling it).
// It takes a whole feed of updates whose seed-independent parts (fingerprint
// term, key hash) were computed once for all samplers of a round, and
// applies it repetition by repetition and level by level instead of update
// by update. Update and UpdateTerm are the same code over a feed of one.
// SampleFeed takes a pass's last feed without applying it: it forms only the
// rows a query reads, each as its stored cells plus the entries that reach
// it, and Sample is SampleFeed over an empty feed.
//
// Key and count magnitudes are bounded by the cell's int64 keySum: keys must
// be below 2^63 — recovery takes a keySum that reads negative for a
// collision, so a larger key is never returned — and |Σ count·key| over the
// keys of a cell below 2^63 for its recovery to succeed. Intermediate sums may
// wrap; only the net matters. Graph streams keep net counts at 0 or 1 and
// their callers bound the keys (edge IDs < n^2: TurnstileRunner takes
// n <= ⌊√2^63⌋).
type L0Sampler struct {
	seed       uint64
	z          uint64 // fingerprint evaluation point
	levels     int
	buckets    int // always a power of two
	bucketBits int
	bucketMask uint64
	reps       int
	cells      []l0cell // reps × levels × buckets
}

type l0cell struct {
	count  int64
	keySum int64
	fp     uint64 // Σ count_i · z^{key_i} mod 2^61-1
}

// L0Config configures an L0Sampler. The zero value selects the defaults.
type L0Config struct {
	// Levels is the number of geometric subsampling levels (default 44,
	// enough for supports up to ~2^44 keys). It is capped at 65: a
	// key reaches no level above 64.
	Levels int
	// Buckets is the number of 1-sparse recovery cells per level
	// (default 8).
	Buckets int
	// Reps is the number of independent repetitions (default 2).
	Reps int
}

// maxL0Levels is how many levels a key can reach: its deepest level is the
// leading zeros of a 64-bit hash, at most 64, so levels above 64 stay empty.
const maxL0Levels = 65

func (c L0Config) withDefaults() L0Config {
	if c.Levels <= 0 {
		c.Levels = 44
	}
	c.Levels = min(c.Levels, maxL0Levels)
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	// Buckets are rounded up to a power of two so bucket selection can
	// consume hash bits directly.
	for c.Buckets&(c.Buckets-1) != 0 {
		c.Buckets++
	}
	if c.Reps <= 0 {
		c.Reps = 2
	}
	return c
}

// NewL0Sampler returns an empty sampler. Samplers with different seeds use
// independent hash functions.
func NewL0Sampler(seed uint64, cfg L0Config) *L0Sampler {
	return NewL0SamplerWithBase(seed, Hash64(seed, 0xf00dcafe)%(mersenne61-2)+2, cfg)
}

// NewL0SamplerWithBase is NewL0Sampler with an explicit fingerprint
// evaluation point z in [2, 2^61-1). Sharing z across many samplers lets a
// caller compute the per-update fingerprint term once (FingerprintTerm) and
// feed it to every sampler via UpdateTerm — the level hashes stay
// independent, only the collision-detection polynomial is shared.
func NewL0SamplerWithBase(seed, z uint64, cfg L0Config) *L0Sampler {
	cfg = cfg.withDefaults()
	bits := 0
	for 1<<uint(bits) < cfg.Buckets {
		bits++
	}
	s := &L0Sampler{
		seed:       seed,
		z:          z,
		levels:     cfg.Levels,
		buckets:    cfg.Buckets,
		bucketBits: bits,
		bucketMask: uint64(cfg.Buckets - 1),
		reps:       cfg.Reps,
	}
	s.cells = make([]l0cell, cfg.Reps*cfg.Levels*cfg.Buckets)
	return s
}

// Reseed re-arms the sampler in place under a new seed and fingerprint
// base, reusing its cell array: the result is bit-identical in every
// observable way to NewL0SamplerWithBase(seed, z, cfg) with the sampler's
// own configuration. It is the pool-reuse path of the pass engine
// (DESIGN.md §12): a round's samplers are recycled, not reallocated.
func (s *L0Sampler) Reseed(seed, z uint64) {
	s.seed = seed
	s.z = z
	clear(s.cells)
}

// Dirty smears the sampler's state with loud sentinels. It is a pool-debug
// hook (pool.DebugDirty) for sampler freelists: a reuse path that skipped
// Reseed then produces obviously corrupt samples instead of stale ones.
func (s *L0Sampler) Dirty() {
	s.seed = 0xdeaddeaddeaddead
	s.z = 0xdeaddeaddeaddead
	for i := range s.cells {
		s.cells[i] = l0cell{count: -0x5a5a5a, keySum: -0x5a5a5a, fp: 0xdeaddead}
	}
}

// RandomFieldBase draws a fingerprint evaluation point from the hash of the
// given seed, suitable for NewL0SamplerWithBase.
func RandomFieldBase(seed uint64) uint64 {
	return Hash64(seed, 0xf00dcafe)%(mersenne61-2) + 2
}

// FingerprintTerm computes the fingerprint contribution delta·z^key
// (mod 2^61-1) for use with UpdateTerm.
func FingerprintTerm(z, key uint64, delta int64) uint64 {
	return fingerprintTerm(z, key, delta)
}

// FeedEntry is one buffered update of an UpdateFeed batch. Key and Delta are
// the update; Term and KeyHash are derived from them by FillFeed and depend
// on no sampler seed, so one filled feed serves every sampler that shares
// the fingerprint base.
type FeedEntry struct {
	Key     uint64
	Delta   int64
	Term    uint64 // FingerprintTerm(base, Key, Delta)
	KeyHash uint64 // the key's half of Hash64: splitmix64(Key)
}

// FillFeed computes Term (under fingerprint base z) and KeyHash of every
// entry from its Key and Delta.
func FillFeed(z uint64, feed []FeedEntry) {
	for i := range feed {
		e := &feed[i]
		e.Term = fingerprintTerm(z, e.Key, e.Delta)
		e.KeyHash = splitmix64(e.Key)
	}
}

// L0Scratch is the working memory of UpdateFeed and SampleFeed. It carries
// nothing between calls; one scratch serves any number of samplers, one
// goroutine at a time.
type L0Scratch struct {
	walk []l0walk
	deep []uint8  // SampleFeed: each feed entry's deepest level
	row  []l0cell // SampleFeed: the row being formed
}

// l0walk is a feed entry's position in one repetition's level walk.
type l0walk struct {
	bh   uint64 // bucket-hash bits not yet consumed
	i    uint32 // index into the feed
	deep uint32 // deepest level the entry belongs to
}

// UpdateFeed applies every entry of a FillFeed-filled feed (at most 2^32
// entries, filled under this sampler's base). The sketch is linear, so the
// cells end up exactly as if the entries had been applied one at a time in
// any order, and UpdateFeed(a) then UpdateFeed(b) equals UpdateFeed(a‖b).
func (s *L0Sampler) UpdateFeed(feed []FeedEntry, sc *L0Scratch) {
	if cap(sc.walk) < len(feed) {
		sc.walk = make([]l0walk, len(feed))
	}
	s.updateFeed(feed, sc.walk[:len(feed)])
}

// updateFeed is the sampler's one update loop; walk must be as long as feed.
// Per repetition it hashes the two seeds once and goes level-major: the
// first sweep hashes every entry (deepest level, bucket hash), applies level
// 0 and writes the entries that go deeper to walk; each further level
// applies walk to its row of buckets and compacts it in place to the entries
// that go deeper still. Half the entries drop out per level, so a repetition
// costs ~2 cell updates per entry, and no loop body branches on the data:
// the walk grows by a computed 0 or 1 and the fingerprint folds modulo
// 2^61-1 by mask.
//
// One hash supplies the bucket choice of perHash levels, bucketBits bits
// each; at every perHash-th level the survivors are rehashed.
func (s *L0Sampler) updateFeed(feed []FeedEntry, walk []l0walk) {
	levels, buckets, mask, shift := s.levels, s.buckets, s.bucketMask, uint(s.bucketBits)&63
	perHash := s.perHash()
	for rep := 0; rep < s.reps; rep++ {
		levelSeed := splitmix64(s.seed + uint64(rep)*0x9e3779b9)
		bucketSeed := splitmix64(s.seed ^ 0xabcdef ^ uint64(rep))
		rows := s.cells[rep*levels*buckets:][:levels*buckets]
		row := rows[:buckets]
		k := 0
		for i := range feed {
			e := &feed[i]
			deep := min(bits.LeadingZeros64(splitmix64(levelSeed^e.KeyHash)), levels-1)
			bh := splitmix64(bucketSeed ^ e.KeyHash)
			row[bh&mask].add(e)
			walk[k] = l0walk{bh: bh >> shift, i: uint32(i), deep: uint32(deep)}
			k += int(uint32(-deep) >> 31) // deep >= 1
		}
		for level := 1; k > 0; level++ {
			live := walk[:k]
			if level%perHash == 0 {
				for j := range live {
					live[j].bh = splitmix64(live[j].bh + 0x9e3779b97f4a7c15)
				}
			}
			row = rows[level*buckets:][:buckets]
			k = 0
			for _, w := range live {
				row[w.bh&mask].add(&feed[w.i])
				w.bh >>= shift
				live[k] = w
				k += int(uint32(level-int(w.deep)) >> 31) // deep > level
			}
		}
	}
}

// perHash is how many levels one bucket hash serves, bucketBits bits each;
// the walks rehash at every perHash-th level.
func (s *L0Sampler) perHash() int {
	if s.bucketBits == 0 {
		return s.levels
	}
	return 64 / s.bucketBits
}

// add applies one feed entry to the cell. Term < 2^61-1 and the cell keeps
// fp < 2^61-1, so fp+Term-(2^61-1) wraps negative exactly when no reduction
// is due, and its sign mask adds the modulus back.
func (c *l0cell) add(e *FeedEntry) {
	c.count += e.Delta
	c.keySum += e.Delta * int64(e.Key)
	t := c.fp + e.Term - mersenne61
	c.fp = t + mersenne61&uint64(int64(t)>>63)
}

// UpdateTerm is Update with the fingerprint term precomputed by the caller
// (term must equal FingerprintTerm(base, key, delta) for this sampler's
// base). It is UpdateFeed over one entry.
func (s *L0Sampler) UpdateTerm(key uint64, delta int64, term uint64) {
	if delta == 0 {
		return
	}
	feed := [1]FeedEntry{{Key: key, Delta: delta, Term: term, KeyHash: splitmix64(key)}}
	var walk [1]l0walk
	s.updateFeed(feed[:], walk[:])
}

func (s *L0Sampler) cell(rep, level, bucket int) *l0cell {
	return &s.cells[(rep*s.levels+level)*s.buckets+bucket]
}

// Update applies a turnstile update: the multiplicity of key changes by
// delta (typically ±1).
func (s *L0Sampler) Update(key uint64, delta int64) {
	s.UpdateTerm(key, delta, fingerprintTerm(s.z, key, delta))
}

// fingerprintTerm computes delta·z^key (mod 2^61-1), handling negative
// deltas via the field's additive inverse.
func fingerprintTerm(z, key uint64, delta int64) uint64 {
	term := powmod61(z, key)
	var d uint64
	if delta >= 0 {
		d = uint64(delta) % mersenne61
	} else {
		d = mersenne61 - uint64(-delta)%mersenne61
	}
	return mulmod61(term, d)
}

// empty reports whether the cell holds nothing.
func (c *l0cell) empty() bool { return c.count == 0 && c.keySum == 0 && c.fp == 0 }

// oneSparse checks whether a non-empty cell holds exactly one key and returns
// it. A cell that is neither empty nor verifiably 1-sparse indicates a
// collision.
func (s *L0Sampler) oneSparse(c *l0cell) (key uint64, ok bool) {
	if c.count <= 0 {
		return 0, false
	}
	if c.keySum < 0 || c.keySum%c.count != 0 {
		return 0, false
	}
	k := uint64(c.keySum / c.count)
	want := mulmod61(uint64(c.count)%mersenne61, powmod61(s.z, k))
	if want != c.fp {
		return 0, false
	}
	return k, true
}

// Sample returns a near-uniform key from the current support. ok is false
// if the support is empty or recovery failed (probability shrinking
// geometrically in the configuration size).
func (s *L0Sampler) Sample() (key uint64, ok bool) {
	var sc L0Scratch // an empty feed leaves it untouched
	return s.SampleFeed(nil, &sc)
}

// SampleFeed returns what Sample would return after UpdateFeed(feed, sc), and
// leaves the cells as they are. Sample stops at the sparsest non-empty level,
// so SampleFeed forms only the rows down to there, each as its stored cells
// plus the entries that reach it: the same sums, as the cell adds are
// order-free. A pass that samples right after its last flush takes that flush
// here, and the dense low levels, where nearly all of a feed's cell adds land,
// are never written.
//
// Per repetition, and only while the earlier ones fail, it hashes each entry's
// level once and counts the entries per level. It then walks from the
// sparsest level down; at each level some entry reaches, one sweep appends
// that level's entries to the walk. Entries are bucket-hashed for the
// perHash-level group the walk is in — a new entry when it joins, every entry
// again, down updateFeed's rehash chain, when the walk enters a lower group.
// The walk usually stops at the deepest level an entry reaches, so the feed
// is swept once after the hashing, and once more per level the walk descends
// through — where entries cancel stored cells to an empty row.
func (s *L0Sampler) SampleFeed(feed []FeedEntry, sc *L0Scratch) (key uint64, ok bool) {
	if len(feed) > 0 {
		sc.walk = slices.Grow(sc.walk[:0], len(feed))[:len(feed)]
		sc.deep = slices.Grow(sc.deep[:0], len(feed))[:len(feed)]
		sc.row = slices.Grow(sc.row[:0], s.buckets)[:s.buckets]
	}
	levels, buckets, mask, shift := s.levels, s.buckets, s.bucketMask, uint(s.bucketBits)&63
	perHash := s.perHash()
	for rep := 0; rep < s.reps; rep++ {
		hashSeed := s.seed + uint64(rep)*0x9e3779b9 // Hash64's seed: the level hash
		levelSeed := splitmix64(hashSeed)
		bucketSeed := splitmix64(s.seed ^ 0xabcdef ^ uint64(rep))
		rows := s.cells[rep*levels*buckets:][:levels*buckets]

		// Each entry's deepest level, and how many entries have each.
		var count [maxL0Levels]int32
		deep := sc.deep[:len(feed)]
		for i := range feed {
			d := min(bits.LeadingZeros64(splitmix64(levelSeed^feed[i].KeyHash)), levels-1)
			deep[i] = uint8(d)
			count[d]++
		}

		// walk[:n] are the entries that reach the level, deepest first, and
		// walk[:hashed] hold the bucket hash of the level's perHash group.
		walk := sc.walk[:len(feed)]
		n, hashed, group := 0, 0, -1
		for level := levels - 1; level >= 0; level-- {
			row := rows[level*buckets:][:buckets]
			for i, end := 0, n+int(count[level]); n < end; i++ {
				if int(deep[i]) == level {
					walk[n] = l0walk{i: uint32(i)}
					n++
				}
			}
			if n > 0 {
				if g := level / perHash; g != group {
					hashed, group = 0, g
				}
				for j := hashed; j < n; j++ {
					bh := splitmix64(bucketSeed ^ feed[walk[j].i].KeyHash)
					for range group {
						bh = splitmix64(bh>>(uint(perHash)*shift) + 0x9e3779b97f4a7c15)
					}
					walk[j].bh = bh
				}
				hashed = n
				formed := sc.row[:buckets]
				copy(formed, row)
				at := uint(level%perHash) * shift
				for _, w := range walk[:n] {
					formed[w.bh>>at&mask].add(&feed[w.i])
				}
				row = formed
			}
			if key, nonEmpty, ok := s.readRow(row, hashSeed); nonEmpty {
				if ok {
					return key, true
				}
				break // collisions at the sparsest non-empty level
			}
		}
	}
	return 0, false
}

// readRow reads one level's row as Sample does: nonEmpty if any cell is, and
// then ok with the recovered key of minimum hash if every non-empty cell is
// verifiably 1-sparse.
func (s *L0Sampler) readRow(row []l0cell, hashSeed uint64) (key uint64, nonEmpty, ok bool) {
	var bestHash uint64
	for i := range row {
		if row[i].empty() {
			continue
		}
		k, isOK := s.oneSparse(&row[i])
		if !isOK {
			return 0, true, false
		}
		if h := Hash64(hashSeed, k); !ok || h < bestHash {
			key, bestHash, ok = k, h, true
		}
	}
	return key, ok, ok
}

// SpaceWords returns the approximate space usage in 64-bit words.
func (s *L0Sampler) SpaceWords() int64 {
	return int64(len(s.cells))*3 + 8
}

// SpaceWords returns what SpaceWords reports for a sampler of this geometry.
func (c L0Config) SpaceWords() int64 {
	c = c.withDefaults()
	return int64(c.Reps*c.Levels*c.Buckets)*3 + 8
}
