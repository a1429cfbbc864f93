package rcache

import (
	"errors"
	"sync"
	"testing"

	"streamcount/internal/wire"
)

func k(stream string, version int64, fp uint64, seed int64) Key {
	return Key{Stream: stream, Version: version, Fingerprint: fp, Seed: seed}
}

func TestCacheGetPutLRU(t *testing.T) {
	c := New(3 * (entryOverhead + 1 + 100)) // room for exactly three entries of size 100
	for i := int64(0); i < 3; i++ {
		c.Put(k("s", i, 7, 1), i, 100)
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("want 3 resident entries, no evictions; got %+v", st)
	}
	// Touch version 0 so version 1 is the LRU victim.
	if v, ok := c.Get(k("s", 0, 7, 1)); !ok || v.(int64) != 0 {
		t.Fatalf("Get(v0) = %v, %v", v, ok)
	}
	c.Put(k("s", 3, 7, 1), int64(3), 100)
	if _, ok := c.Get(k("s", 1, 7, 1)); ok {
		t.Fatal("LRU entry (v1) survived eviction")
	}
	if _, ok := c.Get(k("s", 0, 7, 1)); !ok {
		t.Fatal("recently used entry (v0) was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := New(1 << 20)
	c.Put(k("s", 5, 7, 1), "v", 10)
	for _, miss := range []Key{
		k("other", 5, 7, 1), // different stream
		k("s", 6, 7, 1),     // different version
		k("s", 5, 8, 1),     // different query
		k("s", 5, 7, 2),     // different seed
	} {
		if _, ok := c.Get(miss); ok {
			t.Fatalf("key %+v unexpectedly hit", miss)
		}
	}
	if _, ok := c.Get(k("s", 5, 7, 1)); !ok {
		t.Fatal("exact key missed")
	}
}

func TestCacheOversizeValueNotStored(t *testing.T) {
	c := New(256)
	c.Put(k("s", 1, 7, 1), "v", 1<<20)
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("oversize value was stored: %+v", st)
	}
}

func TestCacheDropStream(t *testing.T) {
	c := New(1 << 20)
	c.Put(k("a", 1, 7, 1), "v", 10)
	c.Put(k("a", 2, 7, 1), "v", 10)
	c.Put(k("b", 1, 7, 1), "v", 10)
	c.DropStream("a")
	if _, ok := c.Get(k("a", 1, 7, 1)); ok {
		t.Fatal("dropped stream entry survived")
	}
	if _, ok := c.Get(k("b", 1, 7, 1)); !ok {
		t.Fatal("unrelated stream entry was dropped")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c != New(0) || New(-1) != nil {
		t.Fatal("non-positive capacity must build the nil cache")
	}
	c.Put(k("s", 1, 7, 1), "v", 10)
	if _, ok := c.Get(k("s", 1, 7, 1)); ok {
		t.Fatal("nil cache hit")
	}
	f, leader := c.Join(k("s", 1, 7, 1))
	if f != nil || !leader {
		t.Fatal("nil cache Join must make every caller a flightless leader")
	}
	c.Complete(k("s", 1, 7, 1), f, nil, nil)
	c.DropStream("s")
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zeros", st)
	}
}

func TestSingleflightOneLeader(t *testing.T) {
	c := New(1 << 20)
	key := k("s", 1, 7, 1)
	const n = 16
	var leaders int
	var mu sync.Mutex
	var wg, joined sync.WaitGroup
	start := make(chan struct{})
	leaderGo := make(chan *Flight, 1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		joined.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f, isLeader := c.Join(key)
			joined.Done()
			if isLeader {
				mu.Lock()
				leaders++
				mu.Unlock()
				leaderGo <- f
				return
			}
			<-f.Done()
			if v, err := f.Value(); err != nil || v.(string) != "result" {
				t.Errorf("follower got %v, %v", v, err)
			}
		}()
	}
	close(start)
	f := <-leaderGo
	// Complete only after every goroutine has joined this flight; completing
	// early would let a straggler lead a second flight nobody finishes.
	joined.Wait()
	c.Complete(key, f, "result", nil)
	wg.Wait()
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
	// The flight retired with Complete: the next Join leads a fresh one.
	if _, isLeader := c.Join(key); !isLeader {
		t.Fatal("completed flight still registered")
	}
}

func TestSingleflightLeaderError(t *testing.T) {
	c := New(1 << 20)
	key := k("s", 1, 7, 1)
	f, isLeader := c.Join(key)
	if !isLeader {
		t.Fatal("first Join must lead")
	}
	f2, isLeader2 := c.Join(key)
	if isLeader2 || f2 != f {
		t.Fatal("second Join must follow the first flight")
	}
	want := errors.New("boom")
	c.Complete(key, f, nil, want)
	<-f2.Done()
	if _, err := f2.Value(); !errors.Is(err, want) {
		t.Fatalf("follower error = %v, want %v", err, want)
	}
}

func TestFingerprintStability(t *testing.T) {
	q := wire.Query{Kind: "count", Pattern: "triangle", Trials: 600, Seed: 7}
	fp := Fingerprint(q)
	if fp == 0 {
		t.Fatal("fingerprint must never be the uncacheable sentinel")
	}
	if Fingerprint(q) != fp {
		t.Fatal("fingerprint is not deterministic")
	}
	// Seed, Stream and Parallelism are key components / contract-irrelevant,
	// not part of the query identity.
	for _, same := range []wire.Query{
		{Kind: "count", Pattern: "triangle", Trials: 600, Seed: 99},
		{Kind: "count", Pattern: "triangle", Trials: 600, Stream: "other"},
		{Kind: "count", Pattern: "triangle", Trials: 600, Parallelism: 8},
	} {
		if Fingerprint(same) != fp {
			t.Fatalf("query %+v must fingerprint identically", same)
		}
	}
	// Every algorithm-selecting field must discriminate.
	for _, diff := range []wire.Query{
		{Kind: "sample", Pattern: "triangle", Trials: 600},
		{Kind: "count", Pattern: "C5", Trials: 600},
		{Kind: "count", Pattern: "triangle", Trials: 601},
		{Kind: "count", Pattern: "triangle", Trials: 600, Epsilon: 0.5},
		{Kind: "count", Pattern: "triangle", Trials: 600, LowerBound: 10},
		{Kind: "count", Pattern: "triangle", Trials: 600, EdgeBound: 5},
		{Kind: "count", Pattern: "triangle", Trials: 600, MaxTrials: 9},
		{Kind: "count", Pattern: "triangle", Trials: 600, Lambda: 3},
		{Kind: "distinguish", Pattern: "triangle", Trials: 600, Threshold: 50},
		{Kind: "cliques", R: 4},
	} {
		if Fingerprint(diff) == fp {
			t.Fatalf("query %+v must fingerprint differently", diff)
		}
	}
	// Adjacent string fields must not alias through concatenation.
	if Fingerprint(wire.Query{Kind: "ab", Pattern: "c"}) == Fingerprint(wire.Query{Kind: "a", Pattern: "bc"}) {
		t.Fatal("kind/pattern boundary aliases")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	q := wire.Query{Kind: "count", Pattern: "triangle", Trials: 600, Epsilon: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Fingerprint(q) == 0 {
			b.Fatal("zero fingerprint")
		}
	}
}
