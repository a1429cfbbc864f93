package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulmod61Small(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 1, 1},
		{mersenne61 - 1, 1, mersenne61 - 1},
		{2, mersenne61 - 1, mersenne61 - 2},
		{123456789, 987654321, 123456789 * 987654321 % mersenne61},
	}
	for _, c := range cases {
		if got := mulmod61(c.a, c.b); got != c.want {
			t.Errorf("mulmod61(%d,%d)=%d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulmod61Property(t *testing.T) {
	// Verify against big-number arithmetic via mul64 decomposition:
	// (a*b) mod p computed by repeated subtraction on 128-bit halves.
	f := func(a, b uint64) bool {
		a %= mersenne61
		b %= mersenne61
		got := mulmod61(a, b)
		// Reference: compute via four 32-bit partial products mod p.
		const mask = 1<<32 - 1
		a0, a1 := a&mask, a>>32
		b0, b1 := b&mask, b>>32
		ref := (a0 * b0) % mersenne61
		mid := (a0*b1 + a1*b0) % mersenne61
		// mid * 2^32 mod p
		for i := 0; i < 32; i++ {
			mid = (mid * 2) % mersenne61
		}
		hi := (a1 * b1) % mersenne61
		for i := 0; i < 64; i++ {
			hi = (hi * 2) % mersenne61
		}
		ref = (ref + mid + hi) % mersenne61
		return got == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPowmod61(t *testing.T) {
	if got := powmod61(2, 10); got != 1024 {
		t.Errorf("2^10=%d", got)
	}
	// Fermat: a^(p-1) = 1 mod p for prime p.
	for _, a := range []uint64{2, 3, 123456789} {
		if got := powmod61(a, mersenne61-1); got != 1 {
			t.Errorf("%d^(p-1)=%d, want 1", a, got)
		}
	}
	if got := powmod61(5, 0); got != 1 {
		t.Errorf("5^0=%d", got)
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Hash64(42, i)
		if seen[h] {
			t.Fatalf("hash collision at %d", i)
		}
		seen[h] = true
	}
	if Hash64(1, 5) == Hash64(2, 5) {
		t.Errorf("different seeds should give different hashes (w.h.p.)")
	}
}

func TestReservoirUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const items = 10
	const trials = 20000
	counts := make([]int, items)
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(rng)
		for i := uint64(0); i < items; i++ {
			r.Offer(i)
		}
		v, ok := r.Sample()
		if !ok {
			t.Fatal("sample failed on non-empty stream")
		}
		counts[v]++
	}
	want := float64(trials) / items
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("item %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(rand.New(rand.NewSource(1)))
	if _, ok := r.Sample(); ok {
		t.Error("empty reservoir should not return a sample")
	}
	if r.Count() != 0 {
		t.Errorf("count=%d", r.Count())
	}
}

func TestL0SamplerBasic(t *testing.T) {
	s := NewL0Sampler(7, L0Config{})
	if _, ok := s.Sample(); ok {
		t.Error("empty sampler should fail")
	}
	s.Update(42, 1)
	if k, ok := s.Sample(); !ok || k != 42 {
		t.Errorf("Sample()=(%d,%v), want (42,true)", k, ok)
	}
	s.Update(42, -1)
	if _, ok := s.Sample(); ok {
		t.Error("support emptied by deletion; sample should fail")
	}
}

func TestL0SamplerDeletions(t *testing.T) {
	s := NewL0Sampler(99, L0Config{})
	// Insert 100 keys, delete all but one.
	for k := uint64(0); k < 100; k++ {
		s.Update(k*17+3, 1)
	}
	for k := uint64(0); k < 100; k++ {
		if k != 57 {
			s.Update(k*17+3, -1)
		}
	}
	if got, ok := s.Sample(); !ok || got != 57*17+3 {
		t.Errorf("Sample()=(%d,%v), want (%d,true)", got, ok, 57*17+3)
	}
}

func TestL0SamplerSuccessRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fails := 0
	const trials = 300
	for tr := 0; tr < trials; tr++ {
		s := NewL0Sampler(rng.Uint64(), L0Config{})
		support := rng.Intn(200) + 1
		for k := 0; k < support; k++ {
			s.Update(uint64(k)*1000003+uint64(tr), 1)
		}
		if _, ok := s.Sample(); !ok {
			fails++
		}
	}
	if fails > trials/20 {
		t.Errorf("%d/%d sampler failures; want < 5%%", fails, trials)
	}
}

func TestL0SamplerUniformity(t *testing.T) {
	// Lemma 7: a sampler succeeds with probability ≥ 1 − δ and, conditioned
	// on success, returns each support element with probability 1/N. Each
	// support runs at least 20 trials per element, and the χ² statistic of
	// the sampled keys must stay under its 99.9 % quantile at N − 1 degrees
	// of freedom.
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		support, trials int
		chi2Crit        float64
	}{
		{8, 8000, 24.32},
		{100, 2000, 148.23},
		{400, 8000, 492.02},
	} {
		counts := make(map[uint64]int)
		succ := 0
		for tr := 0; tr < c.trials; tr++ {
			s := NewL0Sampler(rng.Uint64(), L0Config{})
			for k := uint64(0); k < uint64(c.support); k++ {
				s.Update(k*911+13, 1)
			}
			if k, ok := s.Sample(); ok {
				counts[k]++
				succ++
			}
		}
		if succ < c.trials*95/100 {
			t.Fatalf("support %d: success rate %d/%d too low", c.support, succ, c.trials)
		}
		want := float64(succ) / float64(c.support)
		chi2, inSupport := 0.0, 0
		for k := uint64(0); k < uint64(c.support); k++ {
			n := counts[k*911+13]
			inSupport += n
			chi2 += (float64(n) - want) * (float64(n) - want) / want
		}
		t.Logf("support %d: success %d/%d, χ² %.1f (99.9%% quantile %.2f)", c.support, succ, c.trials, chi2, c.chi2Crit)
		if inSupport != succ {
			t.Errorf("support %d: %d of %d samples are keys outside the support", c.support, succ-inSupport, succ)
		}
		if chi2 > c.chi2Crit {
			t.Errorf("support %d: χ² = %.1f over %d samples exceeds the 99.9%% quantile %.2f", c.support, chi2, succ, c.chi2Crit)
		}
	}
}

func TestL0SamplerSharedBase(t *testing.T) {
	base := RandomFieldBase(12345)
	s1 := NewL0SamplerWithBase(1, base, L0Config{})
	s2 := NewL0SamplerWithBase(2, base, L0Config{})
	for k := uint64(0); k < 50; k++ {
		term := FingerprintTerm(base, k*7, 1)
		s1.UpdateTerm(k*7, 1, term)
		s2.UpdateTerm(k*7, 1, term)
	}
	if _, ok := s1.Sample(); !ok {
		t.Error("s1 failed")
	}
	if _, ok := s2.Sample(); !ok {
		t.Error("s2 failed")
	}
}

func TestL0SamplerLargeKeys(t *testing.T) {
	// Keys round-trip up to the documented bound, 2^63-1: a cell's keySum is
	// an int64, and one that reads negative is taken for a collision.
	for _, key := range []uint64{1 << 49, 1<<63 - 1} {
		s := NewL0Sampler(5, L0Config{})
		s.Update(key, 1)
		if got, ok := s.Sample(); !ok || got != key {
			t.Errorf("Sample()=(%d,%v), want (%d,true)", got, ok, key)
		}
	}
	// Past it the key is in the support and can never be returned — which is
	// why the turnstile runner bounds the universe (maxTurnstileVertices).
	s := NewL0Sampler(5, L0Config{})
	s.Update(1<<63+5, 1)
	if got, ok := s.Sample(); ok {
		t.Errorf("Sample()=(%d,true) for a key over 2^63: the bound moved, move maxTurnstileVertices with it", got)
	}
}

func TestL0SpaceWords(t *testing.T) {
	s := NewL0Sampler(1, L0Config{Levels: 10, Buckets: 4, Reps: 2})
	if s.SpaceWords() <= 0 || s.SpaceWords() > 10*4*2*3+8 {
		t.Errorf("space=%d out of expected range", s.SpaceWords())
	}
	// A round charges a sampler's words from its configuration before the
	// sampler exists.
	for _, cfg := range []L0Config{{}, {Levels: 10, Buckets: 4, Reps: 2}, {Levels: 30, Buckets: 5, Reps: 3}} {
		if got, want := cfg.SpaceWords(), NewL0Sampler(1, cfg).SpaceWords(); got != want {
			t.Errorf("%+v: config says %d words, sampler %d", cfg, got, want)
		}
	}
}
