package sketch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceSample is the level walk Sample ran before it became SampleFeed
// over an empty feed, kept as the reference: per repetition, from the
// sparsest level down, the first level with a non-empty cell answers — the
// minimum-hash key if every non-empty cell is 1-sparse, a failure of the
// repetition otherwise.
func referenceSample(s *L0Sampler) (uint64, bool) {
	for rep := 0; rep < s.reps; rep++ {
	levels:
		for level := s.levels - 1; level >= 0; level-- {
			var (
				found          bool
				best, bestHash uint64
			)
			for b := 0; b < s.buckets; b++ {
				c := s.cell(rep, level, b)
				if c.empty() {
					continue
				}
				k, ok := s.oneSparse(c)
				if !ok {
					break levels // collisions at the sparsest non-empty level
				}
				if h := Hash64(s.seed+uint64(rep)*0x9e3779b9, k); !found || h < bestHash {
					found, best, bestHash = true, k, h
				}
			}
			if found {
				return best, true
			}
		}
	}
	return 0, false
}

// sampleFeedGeometries are the geometries that change SampleFeed's control
// flow: the pass engine's (22 levels, where 8 buckets rehash at level 21);
// one bucket, which consumes no bucket bits; 32 buckets, which rehash at
// level 12, below where the deep keys sit; 72 levels, capped at the 65 a key
// can reach; and one so small that most cells collide.
var sampleFeedGeometries = []L0Config{
	{Levels: 22, Buckets: 8, Reps: 2},
	{Levels: 22, Buckets: 1, Reps: 2},
	{Levels: 22, Buckets: 32, Reps: 2},
	{Levels: 72, Buckets: 8, Reps: 2},
	{Levels: 3, Buckets: 2, Reps: 1},
}

// checkSampleFeed arms two samplers alike: one takes a‖b through UpdateFeed
// and is sampled, the other takes a and samples b through SampleFeed. The
// answers must agree, with each other and with referenceSample, and the
// second sampler's cells must be those a left.
func checkSampleFeed(t *testing.T, cfg L0Config, seed, z uint64, a, b []FeedEntry) (ok bool) {
	t.Helper()
	var sc L0Scratch
	want := NewL0SamplerWithBase(seed, z, cfg)
	want.UpdateFeed(slices.Concat(a, b), &sc)
	wantKey, wantOK := want.Sample()
	if key, ok := referenceSample(want); key != wantKey || ok != wantOK {
		t.Fatalf("%+v: Sample() = (%d, %v), reference walk (%d, %v)", cfg, wantKey, wantOK, key, ok)
	}

	got := NewL0SamplerWithBase(seed, z, cfg)
	got.UpdateFeed(a, &sc)
	cells := slices.Clone(got.cells)
	key, ok := got.SampleFeed(b, &sc)
	if key != wantKey || ok != wantOK {
		t.Fatalf("%+v, %d+%d entries: SampleFeed = (%d, %v), UpdateFeed then Sample (%d, %v)",
			cfg, len(a), len(b), key, ok, wantKey, wantOK)
	}
	if !slices.Equal(got.cells, cells) {
		t.Fatalf("%+v: SampleFeed changed the cells", cfg)
	}
	return ok
}

// turnstileFeeds draws the two halves of a graph-like pass: a inserts n keys
// and the deep keys; b deletes a random third of them and inserts n/4 new
// ones. With dropDeep b deletes every deep key, so the top rows cancel to
// empty and the walk has to descend through them — past the rehash of the
// level group it started in — forming each from stored cells and deletions.
// wide moves the keys up to 2⁶², where keySum wraps.
func turnstileFeeds(rng *rand.Rand, z uint64, n int, dropDeep, wide bool) (a, b []FeedEntry) {
	var off uint64
	if wide {
		off = 1 << 62
	}
	for i := 0; i < n; i++ {
		a = append(a, FeedEntry{Key: off + uint64(rng.Intn(8*n)), Delta: 1})
	}
	for _, key := range deepKeys {
		a = append(a, FeedEntry{Key: key, Delta: 1})
	}
	for _, e := range a {
		deep := slices.Contains(deepKeys[:], e.Key)
		if deep && dropDeep || !deep && rng.Intn(3) == 0 {
			b = append(b, FeedEntry{Key: e.Key, Delta: -1})
		}
	}
	for i := 0; i < n/4; i++ {
		b = append(b, FeedEntry{Key: off + uint64(8*n+rng.Intn(8*n)), Delta: 1})
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	FillFeed(z, a)
	FillFeed(z, b)
	return a, b
}

// TestSampleFeedMatchesUpdateFeed: UpdateFeed(a) then SampleFeed(b) answers
// as UpdateFeed(a‖b) then Sample, and leaves the cells as a left them, on
// every geometry of sampleFeedGeometries, over graph-like passes (with and
// without the deep keys cancelling, with keys past 2⁶²) and over arbitrary
// ones cut anywhere.
func TestSampleFeedMatchesUpdateFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, cfg := range sampleFeedGeometries {
		t.Run(fmt.Sprintf("levels=%d/buckets=%d/reps=%d", cfg.Levels, cfg.Buckets, cfg.Reps), func(t *testing.T) {
			answered := 0
			for trial := 0; trial < 40; trial++ {
				z := RandomFieldBase(rng.Uint64())
				seed := uint64(feedSeed)
				if trial%4 == 3 {
					seed = rng.Uint64()
				}
				n := 50 + rng.Intn(1500)
				for _, dropDeep := range []bool{false, true} {
					for _, wide := range []bool{false, true} {
						a, b := turnstileFeeds(rng, z, n, dropDeep, wide)
						if checkSampleFeed(t, cfg, seed, z, a, b) {
							answered++
						}
					}
				}
				feed := randomFeed(rng, z, n)
				cut := rng.Intn(len(feed) + 1)
				checkSampleFeed(t, cfg, seed, z, feed[:cut], feed[cut:])
				checkSampleFeed(t, cfg, seed, z, nil, feed)
				checkSampleFeed(t, cfg, seed, z, feed, nil)
			}
			if answered == 0 && cfg.Levels > 3 { // the colliding geometry answers nothing
				t.Errorf("no graph-like pass was answered: the check compared failures only")
			}
		})
	}
}

// FuzzSampleFeed is TestSampleFeedMatchesUpdateFeed on arbitrary feeds. The
// first byte picks the geometry; then two bytes per entry — a flag that puts
// the entry in the sampled feed b, a flag that moves the key up to 2⁶², and
// six key bits (the top three name the deep keys), then a signed delta.
func FuzzSampleFeed(f *testing.F) {
	f.Add([]byte{0, 61, 1, 62, 1, 0xbd, 0xff, 5, 1, 0x85, 2, 0x45, 0xff})
	f.Add([]byte{2, 61, 1, 0xbd, 0xff, 9, 1, 0x89, 0xfe, 0x3e, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := sampleFeedGeometries[int(data[0])%len(sampleFeedGeometries)]
		var a, b []FeedEntry
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			key := uint64(data[0] & 0x3f)
			if j := int(key) - (64 - len(deepKeys)); j >= 0 {
				key = deepKeys[j]
			}
			e := FeedEntry{Key: uint64(data[0]&0x40)<<56 | key, Delta: int64(int8(data[1]))}
			if data[0]&0x80 != 0 {
				b = append(b, e)
			} else {
				a = append(a, e)
			}
		}
		z := RandomFieldBase(feedSeed)
		FillFeed(z, a)
		FillFeed(z, b)
		checkSampleFeed(t, cfg, feedSeed, z, a, b)
	})
}

// TestSampleAllocFree: Sample allocates nothing, and SampleFeed nothing once
// its scratch has grown to the feed.
func TestSampleAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	s := NewL0Sampler(feedSeed, L0Config{Levels: 22})
	feed := randomFeed(rng, s.z, 1000)
	var sc L0Scratch
	s.UpdateFeed(feed[:500], &sc)
	if allocs := testing.AllocsPerRun(50, func() { s.Sample() }); allocs != 0 {
		t.Errorf("Sample allocates %.1f times per call", allocs)
	}
	s.SampleFeed(feed[500:], &sc)
	if allocs := testing.AllocsPerRun(50, func() { s.SampleFeed(feed[500:], &sc) }); allocs != 0 {
		t.Errorf("SampleFeed allocates %.1f times per call", allocs)
	}
}

// TestL0LevelsCapped: a geometry of more than 65 levels is built with 65 —
// no key reaches a level above 64 — and answers as the uncapped one would:
// the uncapped sampler, built by hand, takes the feeds through
// referenceUpdateTerm and is read by referenceSample.
func TestL0LevelsCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	cfg := L0Config{Levels: 72, Buckets: 8, Reps: 2}
	if s := NewL0Sampler(1, cfg); s.levels != maxL0Levels || len(s.cells) != 2*maxL0Levels*8 {
		t.Fatalf("72 levels built as %d levels, %d cells; want %d, %d", s.levels, len(s.cells), maxL0Levels, 2*maxL0Levels*8)
	}
	if got, want := cfg.SpaceWords(), (L0Config{Levels: maxL0Levels, Buckets: 8, Reps: 2}).SpaceWords(); got != want {
		t.Errorf("SpaceWords of 72 levels = %d, of %d levels %d", got, maxL0Levels, want)
	}
	for trial := 0; trial < 20; trial++ {
		z := RandomFieldBase(rng.Uint64())
		seed := rng.Uint64()
		capped := NewL0SamplerWithBase(seed, z, cfg)
		uncapped := NewL0SamplerWithBase(seed, z, cfg)
		uncapped.levels = cfg.Levels
		uncapped.cells = make([]l0cell, cfg.Reps*cfg.Levels*cfg.Buckets)
		a, b := turnstileFeeds(rng, z, 50+rng.Intn(1000), trial%2 == 0, false)
		var sc L0Scratch
		capped.UpdateFeed(a, &sc)
		for _, e := range slices.Concat(a, b) {
			referenceUpdateTerm(uncapped, e.Key, e.Delta, e.Term)
		}
		wantKey, wantOK := referenceSample(uncapped)
		if key, ok := capped.SampleFeed(b, &sc); key != wantKey || ok != wantOK {
			t.Fatalf("trial %d: capped sampler answers (%d, %v), uncapped (%d, %v)", trial, key, ok, wantKey, wantOK)
		}
	}
}
