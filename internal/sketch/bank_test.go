package sketch

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randBatches cuts a deterministic key stream into batches of varying size.
func randBatches(seed uint64, total int) [][]uint64 {
	rng := rand.New(NewSplitMix64(seed))
	keys := make([]uint64, total)
	for i := range keys {
		keys[i] = rng.Uint64() >> 14
	}
	var batches [][]uint64
	for len(keys) > 0 {
		sz := 1 + rng.Intn(97)
		if sz > len(keys) {
			sz = len(keys)
		}
		batches = append(batches, keys[:sz])
		keys = keys[sz:]
	}
	return batches
}

// TestBankMatchesReservoir drives a banked slot and a heap reservoir with
// the same seed through identical batch sequences and requires bit-equal
// state at every step — the bank's skip draw must replicate math/rand's
// Float64 over SplitMix64 exactly.
func TestBankMatchesReservoir(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, 1 << 60} {
		var bank ReservoirBank
		bank.Reset(1)
		bank.Seed(0, seed)
		res := NewReservoirSeeded(seed)
		for bi, batch := range randBatches(seed^0x5ca1ab1e, 20000) {
			bank.OfferKeys(0, batch)
			res.OfferKeys(batch)
			bs, bok := bank.Sample(0)
			rs, rok := res.Sample()
			if bs != rs || bok != rok {
				t.Fatalf("seed %d batch %d: bank sample (%d,%v) != reservoir (%d,%v)", seed, bi, bs, bok, rs, rok)
			}
			if bank.count[0] != res.count || bank.next[0] != res.next || bank.state[0] != res.src.state {
				t.Fatalf("seed %d batch %d: bank state {count %d next %d rng %#x} != reservoir {count %d next %d rng %#x}",
					seed, bi, bank.count[0], bank.next[0], bank.state[0], res.count, res.next, res.src.state)
			}
		}
	}
}

// referenceOfferKeys is the bank's offer loop as it was before the
// accept-major sweep (ISSUE 21), kept as the equivalence reference: one slot
// per call, that slot's accepts run to the end of the batch as one dependent
// chain.
func referenceOfferKeys(b *ReservoirBank, i int, keys []uint64) {
	float64at := func() float64 {
		for {
			b.state[i] += 0x9e3779b97f4a7c15
			f := float64(int64(splitmix64(b.state[i])>>1)) / (1 << 63)
			if f != 1 {
				return f
			}
		}
	}
	base := b.count[i]
	end := base + int64(len(keys))
	next := b.next[i]
	for next <= end {
		b.item[i] = keys[next-base-1]
		cnt := next
		u := float64at()
		for u == 0 {
			u = float64at()
		}
		next = int64(math.Ceil(float64(cnt) / u))
		if next <= cnt {
			next = cnt + 1
		}
	}
	b.next[i] = next
	b.count[i] = end
}

// unmix64 inverts the SplitMix64 finalizer: splitmix64(unmix64(x) -
// 0x9e3779b97f4a7c15) == x.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb mod 2^64
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9 mod 2^64
	x ^= x>>30 ^ x>>60
	return x
}

// seedWithFirstDraw returns a slot seed whose first SplitMix64 output is x.
func seedWithFirstDraw(x uint64) uint64 { return unmix64(x) - 0x9e3779b97f4a7c15 - 0x9e3779b97f4a7c15 }

func sameSlots(t *testing.T, label string, got, want *ReservoirBank) {
	t.Helper()
	for i := range want.state {
		if got.state[i] != want.state[i] || got.item[i] != want.item[i] || got.count[i] != want.count[i] || got.next[i] != want.next[i] {
			t.Fatalf("%s: slot %d {rng %#x item %d count %d next %d}, want {rng %#x item %d count %d next %d}", label, i,
				got.state[i], got.item[i], got.count[i], got.next[i], want.state[i], want.item[i], want.count[i], want.next[i])
		}
	}
}

// TestBankSweepMatchesPerSlot holds OfferKeysRange to the per-slot reference
// loop, slot state for slot state: over random batch cuts with empty and
// one-key batches, swept as sub-ranges, and as disjoint blocks swept from
// three goroutines at once.
func TestBankSweepMatchesPerSlot(t *testing.T) {
	const slots = 301
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(NewSplitMix64(seed))
		var got, want ReservoirBank
		got.Reset(slots)
		want.Reset(slots)
		for i := 0; i < slots; i++ {
			s := rng.Uint64()
			got.Seed(i, s)
			want.Seed(i, s)
		}
		batches := randBatches(seed^0xb10c, 6000)
		batches = slices.Insert(batches, 3, nil, batches[3][:1], nil)
		for bi, batch := range batches {
			for i := 0; i < slots; i++ {
				referenceOfferKeys(&want, i, batch)
			}
			switch bi % 3 {
			case 0:
				got.OfferKeysRange(0, slots, batch)
			case 1: // sub-ranges, one of them empty
				a, b := rng.Intn(slots+1), rng.Intn(slots+1)
				a, b = min(a, b), max(a, b)
				got.OfferKeysRange(a, b, batch)
				got.OfferKeysRange(0, a, batch)
				got.OfferKeysRange(b, slots, batch)
				got.OfferKeysRange(a, a, batch)
			case 2: // disjoint blocks from three goroutines
				var wg sync.WaitGroup
				for w := 0; w < 3; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got.OfferKeysRange(w*slots/3, (w+1)*slots/3, batch)
					}()
				}
				wg.Wait()
			}
			sameSlots(t, "sweep", &got, &want)
		}
	}
}

// TestBankSweepRedraws reaches the two re-draw branches no random seed does:
// seeds crafted through the inverse of the SplitMix64 finalizer make a slot's
// first draw u == 0 (the reservoir re-draws) or round to f == 1 (math/rand
// re-draws). The heap Reservoir over math/rand itself is the reference.
func TestBankSweepRedraws(t *testing.T) {
	if x := uint64(0x0123456789abcdef); splitmix64(unmix64(x)-0x9e3779b97f4a7c15) != x {
		t.Fatal("unmix64 does not invert the finalizer")
	}
	seeds := []uint64{
		seedWithFirstDraw(0),                 // u == 0
		seedWithFirstDraw(1),                 // Int63 == 0 again
		seedWithFirstDraw(^uint64(0)),        // Int63 == 2^63-1, rounds to f == 1
		seedWithFirstDraw(^uint64(0) - 1023), // 2^63-512: the lowest Int63 that rounds to 1
		seedWithFirstDraw(^uint64(0) - 1025), // 2^63-513: the highest that does not
		7,
	}
	wantDraws := []uint64{2, 2, 2, 2, 1, 1}
	var bank ReservoirBank
	bank.Reset(len(seeds))
	heap := make([]*Reservoir, len(seeds))
	for i, s := range seeds {
		bank.Seed(i, s)
		heap[i] = NewReservoirSeeded(s)
	}
	check := func(step string) {
		t.Helper()
		for i, r := range heap {
			if bank.state[i] != r.src.state || bank.item[i] != r.item || bank.count[i] != r.count || bank.next[i] != r.next {
				t.Fatalf("%s: slot %d {rng %#x item %d count %d next %d}, reservoir {rng %#x item %d count %d next %d}", step, i,
					bank.state[i], bank.item[i], bank.count[i], bank.next[i], r.src.state, r.item, r.count, r.next)
			}
		}
	}
	offer := func(keys []uint64) {
		bank.OfferKeysRange(0, len(seeds), keys)
		for _, r := range heap {
			r.OfferKeys(keys)
		}
	}
	offer([]uint64{11})
	check("first key")
	for i, s := range seeds {
		if golden := uint64(0x9e3779b97f4a7c15); bank.state[i] != s+wantDraws[i]*golden {
			t.Errorf("slot %d did not make %d draws for its first accept", i, wantDraws[i])
		}
	}
	for _, batch := range randBatches(3, 3000) {
		offer(batch)
	}
	check("after the stream")
}

// TestReservoirResetEqualsFresh proves the pool discipline's core claim for
// reservoirs: a recycled, Reset reservoir is bit-identical to a fresh
// NewReservoirSeeded, even after arbitrary prior use.
func TestReservoirResetEqualsFresh(t *testing.T) {
	used := NewReservoirSeeded(123)
	for _, b := range randBatches(3, 5000) {
		used.OfferKeys(b)
	}
	used.Reset(77)
	fresh := NewReservoirSeeded(77)
	for bi, b := range randBatches(4, 5000) {
		used.OfferKeys(b)
		fresh.OfferKeys(b)
		us, uok := used.Sample()
		fs, fok := fresh.Sample()
		if us != fs || uok != fok {
			t.Fatalf("batch %d: reset reservoir (%d,%v) != fresh (%d,%v)", bi, us, uok, fs, fok)
		}
	}
	if used.src.state != fresh.src.state || used.next != fresh.next || used.count != fresh.count {
		t.Fatal("reset reservoir final state differs from fresh")
	}

	// A NewReservoir over an external RNG gets its own source at Reset.
	ext := NewReservoir(rand.New(NewSplitMix64(1)))
	ext.Reset(77)
	for _, b := range randBatches(4, 5000) {
		ext.OfferKeys(b)
	}
	if es, _ := ext.Sample(); func() uint64 { s, _ := fresh.Sample(); return s }() != es {
		t.Fatal("reset external-RNG reservoir diverged from fresh seeded reservoir")
	}
}

// TestL0ReseedEqualsFresh proves the same claim for ℓ0-samplers: Reseed on
// a dirty sampler behaves exactly like a new construction.
func TestL0ReseedEqualsFresh(t *testing.T) {
	cfg := L0Config{Levels: 12, Buckets: 4, Reps: 2}
	rng := rand.New(NewSplitMix64(9))

	used := NewL0Sampler(31, cfg)
	for i := 0; i < 3000; i++ {
		used.Update(rng.Uint64()>>20, 1)
	}
	z := RandomFieldBase(207)
	used.Reseed(207, z)
	fresh := NewL0SamplerWithBase(207, z, cfg)
	for i := 0; i < 3000; i++ {
		k := rng.Uint64() >> 20
		d := int64(1)
		if i%3 == 0 {
			d = -1
		}
		used.Update(k, d)
		fresh.Update(k, d)
	}
	if *usedSample(used) != *usedSample(fresh) {
		t.Fatal("reseeded sampler diverged from fresh")
	}
	for i := range used.cells {
		if used.cells[i] != fresh.cells[i] {
			t.Fatalf("cell %d differs after reseed: %+v != %+v", i, used.cells[i], fresh.cells[i])
		}
	}
}

type sampleState struct {
	key uint64
	ok  bool
}

func usedSample(s *L0Sampler) *sampleState {
	k, ok := s.Sample()
	return &sampleState{key: k, ok: ok}
}

// BenchmarkBankOffer offers a 100k-key stream in 4096-key batches to 20 000
// slots — one FGP round of the insert-count workload — through the sweep and
// through the per-slot reference loop, and reports the cost per accept (a
// slot's RNG advances once per accept, so the state delta counts them).
func BenchmarkBankOffer(b *testing.B) {
	const slots, total, batch = 20000, 100000, 4096
	keys := make([]uint64, total)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for _, bc := range []struct {
		name  string
		offer func(*ReservoirBank, []uint64)
	}{
		{"sweep", func(bank *ReservoirBank, ks []uint64) { bank.OfferKeysRange(0, slots, ks) }},
		{"perslot", func(bank *ReservoirBank, ks []uint64) {
			for i := 0; i < slots; i++ {
				referenceOfferKeys(bank, i, ks)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var bank ReservoirBank
			accepts := uint64(0)
			for n := 0; n < b.N; n++ {
				bank.Reset(slots)
				for i := 0; i < slots; i++ {
					bank.Seed(i, uint64(i)+1)
				}
				for lo := 0; lo < total; lo += batch {
					bc.offer(&bank, keys[lo:min(lo+batch, total)])
				}
				for i := 0; i < slots; i++ {
					accepts += (bank.state[i] - (uint64(i) + 1)) * 0xf1de83e19937733d // / 0x9e3779b97f4a7c15 mod 2^64
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accepts), "ns/accept")
		})
	}
}
