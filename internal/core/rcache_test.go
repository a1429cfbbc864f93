package core

import (
	"context"
	"sync"
	"testing"

	"streamcount/internal/pattern"
)

// fingerprinted returns the engine test job tagged cacheable, as the facade
// would tag it on a cache-enabled engine.
func fingerprinted(seed int64, fp uint64) Job {
	j := engineTestJob(seed)
	j.Fingerprint = fp
	return j
}

// TestEngineResultCacheHitZeroPasses is the tentpole contract: resubmitting
// an identical fingerprinted job against an unchanged stream returns the
// bit-identical result without admitting a generation or replaying a single
// pass.
func TestEngineResultCacheHitZeroPasses(t *testing.T) {
	sl := sessionWorkload(t)
	e := NewEngine(sl, EngineOptions{ResultCacheBytes: 1 << 20})
	defer e.Close()

	cold, err := e.Submit(context.Background(), fingerprinted(3, 77))
	if err != nil {
		t.Fatal(err)
	}
	passes, gens := e.Passes(), e.Generations()
	if passes == 0 || gens != 1 {
		t.Fatalf("cold run: passes=%d generations=%d", passes, gens)
	}

	warm, err := e.Submit(context.Background(), fingerprinted(3, 77))
	if err != nil {
		t.Fatal(err)
	}
	if e.Passes() != passes || e.Generations() != gens {
		t.Errorf("cache hit replayed: passes %d->%d, generations %d->%d",
			passes, e.Passes(), gens, e.Generations())
	}
	ce, err := cold.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	we, err := warm.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if *ce != *we {
		t.Errorf("cached estimate %+v != cold %+v", *we, *ce)
	}
	if warm.StreamVersion() != cold.StreamVersion() || warm.Passes() != cold.Passes() {
		t.Errorf("cached handle accounting (v=%d passes=%d) != cold (v=%d passes=%d)",
			warm.StreamVersion(), warm.Passes(), cold.StreamVersion(), cold.Passes())
	}
	st := e.ResultCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	// A different seed is a different key: it must run cold, not collide.
	if _, err := e.Submit(context.Background(), fingerprinted(4, 77)); err != nil {
		t.Fatal(err)
	}
	if e.Generations() != gens+1 {
		t.Errorf("different seed served from cache: generations=%d, want %d", e.Generations(), gens+1)
	}
}

// TestEngineResultCacheDisabledByDefault: without ResultCacheBytes the
// engine has no cache, fingerprints are inert, and every submit replays.
func TestEngineResultCacheDisabledByDefault(t *testing.T) {
	sl := sessionWorkload(t)
	e := NewEngine(sl, EngineOptions{})
	defer e.Close()
	if e.ResultCacheEnabled() {
		t.Fatal("default engine has a result cache")
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), fingerprinted(3, 77)); err != nil {
			t.Fatal(err)
		}
	}
	if gens := e.Generations(); gens != 2 {
		t.Errorf("generations=%d, want 2 (no memoization without a cache)", gens)
	}
	if st := e.ResultCacheStats(); st.Misses != 0 || st.CapacityBytes != 0 {
		t.Errorf("disabled cache reported activity: %+v", st)
	}
}

// TestEngineResultCacheSingleflight: N concurrent identical misses admit ONE
// generation; the followers share the leader's result.
func TestEngineResultCacheSingleflight(t *testing.T) {
	sl := sessionWorkload(t)
	g := newGatedStream(sl)
	e := NewEngine(g, EngineOptions{ResultCacheBytes: 1 << 20})
	defer e.Close()

	const n = 16
	handles := make(chan *JobHandle, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := e.Submit(context.Background(), fingerprinted(9, 42))
			if err != nil {
				t.Error(err)
				return
			}
			handles <- h
		}()
	}
	// The leader's generation is parked at the gate, so it cannot populate
	// the cache until every submitter has missed and joined its flight.
	waitFor(t, func() bool { return e.ResultCacheStats().Misses == n })
	g.open()
	wg.Wait()
	close(handles)

	if gens := e.Generations(); gens != 1 {
		t.Errorf("generations=%d, want 1 (singleflight must admit one leader)", gens)
	}
	if passes := e.Passes(); passes != 3 {
		t.Errorf("passes=%d, want 3", passes)
	}
	var want *CountResult
	for h := range handles {
		est, err := h.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = est
		} else if *est != *want {
			t.Errorf("follower estimate %+v != leader %+v", *est, *want)
		}
	}
}

// TestEnginePriorityOrdersBarrierBatch: within one admission batch, the
// higher-priority job's generation runs (and completes) before the default
// lane's, and each priority group is its own generation.
func TestEnginePriorityOrdersBarrierBatch(t *testing.T) {
	sl := sessionWorkload(t)
	g := newGatedStream(sl)
	e := NewEngine(g, EngineOptions{})
	defer e.Close()

	// Generation 1 occupies the engine so the two test jobs land in one
	// barrier batch.
	first := make(chan *JobHandle, 1)
	go func() {
		h, err := e.Submit(context.Background(), engineTestJob(1))
		if err != nil {
			t.Error(err)
		}
		first <- h
	}()
	<-g.Started

	low := make(chan *JobHandle, 1)
	high := make(chan *JobHandle, 1)
	go func() {
		h, err := e.Submit(context.Background(), engineTestJob(2))
		if err != nil {
			t.Error(err)
		}
		low <- h
	}()
	go func() {
		h, err := e.Submit(WithPriority(context.Background(), 5), engineTestJob(3))
		if err != nil {
			t.Error(err)
		}
		high <- h
	}()
	waitFor(t, func() bool { return e.Pending() == 2 })

	// Unblock generation 1 (3 passes), then exactly one more generation.
	g.release(6)
	<-first
	hh := <-high
	if e.Generations() != 2 {
		t.Errorf("generations=%d after high-priority completion, want 2", e.Generations())
	}
	select {
	case <-low:
		t.Fatal("low-priority job completed before the high-priority generation")
	default:
	}
	g.open()
	lh := <-low

	for _, h := range []*JobHandle{hh, lh} {
		est, err := h.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := runCount(sl, h.Job())
		if err != nil {
			t.Fatal(err)
		}
		if *est != *want {
			t.Errorf("prioritized job (seed %d): %+v != standalone %+v", h.Job().Config.Seed, *est, *want)
		}
	}
	if e.Generations() != 3 {
		t.Errorf("generations=%d, want 3 (mixed priorities split the batch)", e.Generations())
	}
}

// TestEngineResultCacheCloneIsolation: cache-served handles never alias the
// resident entry or each other — mutating one result's slices cannot leak
// into later hits.
func TestEngineResultCacheCloneIsolation(t *testing.T) {
	sl := sessionWorkload(t)
	e := NewEngine(sl, EngineOptions{ResultCacheBytes: 1 << 20})
	defer e.Close()

	j := Job{Kind: JobSample, Config: Config{Pattern: pattern.Triangle(), Trials: 20000, Seed: 5}, Fingerprint: 9}
	cold, err := e.Submit(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Result().Found {
		t.Fatal("sampler found no triangle; pick a different seed")
	}
	want := cloneJobResult(cold.Result())

	warm, err := e.Submit(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	wres := warm.Result()
	if len(wres.Copy.Vertices) == 0 {
		t.Fatal("cached sample lost its copy")
	}
	// Vandalize the served slices; the cache (and later hits) must not see it.
	wres.Copy.Vertices[0] = -999
	wres.Copy.Edges[0].U = -999

	again, err := e.Submit(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	ares := again.Result()
	if ares.Copy.Vertices[0] == -999 || ares.Copy.Edges[0].U == -999 {
		t.Fatal("cache entry aliases a served handle's slices")
	}
	if ares.Copy.Vertices[0] != want.Copy.Vertices[0] || ares.Copy.Edges[0] != want.Copy.Edges[0] {
		t.Errorf("cached sample drifted: got v0=%d e0=%+v, want v0=%d e0=%+v",
			ares.Copy.Vertices[0], ares.Copy.Edges[0], want.Copy.Vertices[0], want.Copy.Edges[0])
	}
}
