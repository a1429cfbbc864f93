package streamcount_test

// Benchmarks for the substrates, the FGP and ERS passes, the session engine,
// the daemon and the stream backends; cmd/bench runs them and gates
// BENCH_core.json. The paper's claims are asserted, not timed, by the
// Contract tests in contract_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcount"
	"streamcount/client"
	"streamcount/internal/core"
	"streamcount/internal/ers"
	"streamcount/internal/exact"
	"streamcount/internal/fgp"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pattern"
	"streamcount/internal/server"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
	"streamcount/internal/wire"
)

//lint:file-ignore SA1019 the session benchmarks keep the deprecated one-shot path as the baseline the engine is measured against.

func BenchmarkL0Update(b *testing.B) {
	s := sketch.NewL0Sampler(1, sketch.L0Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i)*2654435761, 1)
	}
}

func BenchmarkL0Sample(b *testing.B) {
	s := sketch.NewL0Sampler(1, sketch.L0Config{})
	for i := 0; i < 1000; i++ {
		s.Update(uint64(i)*2654435761, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Sample(); !ok {
			b.Fatal("sample failed")
		}
	}
}

func BenchmarkReservoirOffer(b *testing.B) {
	r := sketch.NewReservoir(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Offer(uint64(i))
	}
}

func BenchmarkExactTriangles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 1000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.Triangles(g)
	}
}

func BenchmarkExactK4Cliques(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := gen.BarabasiAlbert(rng, 1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.Cliques(g, 4)
	}
}

func BenchmarkDegeneracy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 5000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Degeneracy(g)
	}
}

func BenchmarkDecomposePattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []*pattern.Pattern{
			pattern.Triangle(), pattern.CycleGraph(7), pattern.Clique(6), pattern.Paw(),
		} {
			if _, err := pattern.Decompose(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFGPInsertion measures one full 3-pass FGP count at the given
// trial-level parallelism (0 = GOMAXPROCS, 1 = the sequential baseline); the
// insertion pass itself has one worker.
func benchFGPInsertion(b *testing.B, parallelism int) {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyiGNM(rng, 500, 5000)
	pl, err := fgp.NewPlan(pattern.Triangle())
	if err != nil {
		b.Fatal(err)
	}
	st := stream.FromGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := transform.NewInsertionRunner(st, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fgp.CountParallel(r, pl, 5000, rng, parallelism); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFGPInsertionPass(b *testing.B)           { benchFGPInsertion(b, 0) }
func BenchmarkFGPInsertionPassSequential(b *testing.B) { benchFGPInsertion(b, 1) }

// BenchmarkInsertionRoundManyWatches is one insertion round in the
// shape ERS gives it: ~50 000 Neighbor watches piled on ~50 vertices with
// their indices in random order, over a 3 000-edge stream. It is the leaf
// that shows a per-vertex watch ordering worse than O(k log k), or a pass
// that touches every pending watch on every incident update.
func BenchmarkInsertionRoundManyWatches(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := gen.ErdosRenyiGNM(rng, 50, 1000)
	ups := stream.FromGraph(g).Updates()
	ups = append(append(ups[:len(ups):len(ups)], ups...), ups...) // 3 000 updates, every edge three times
	rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
	st, err := stream.NewSlice(g.N(), ups)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]oracle.Query, 50_000)
	for i := range qs {
		qs[i] = oracle.Query{Type: oracle.Neighbor, U: rng.Int63n(g.N()), I: 1 + rng.Int63n(150)}
	}
	r, err := transform.NewInsertionRunner(st, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Round(qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkERSCliqueCount is one ERS triangle count in the clique-ers
// benchmark workload's shape — BA(800, 3) plus 80 planted triangles, ε 0.4,
// L the exact count — over a pooled InsertionRunner.
// Its allocs/op gate the algorithm↔runner round trip: in steady state the
// count's chains, arenas and numbering tables (its pooled scratch), the task
// executor and the runner all work out of recycled scratch, and what is left
// is ~15 allocations: the Result, the passes' replay callbacks and the
// query's RNG. The count is sequential and runs on one P whatever -cpu says:
// pools are per P, and at ~15 allocs/op the goroutine resuming on another P
// after a collection, where the pools are empty, would move the count by a
// third. queries/op is the oracle queries a count asks.
func BenchmarkERSCliqueCount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PlantCliques(rng, gen.BarabasiAlbert(rng, 800, 3), 3, 80)
	lambda, _ := graph.Degeneracy(g)
	p := ers.Params{R: 3, Lambda: lambda, Eps: 0.4, L: float64(exact.Cliques(g, 3))}
	st := stream.Shuffled(stream.FromGraph(g), rng)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var queries int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qrng := rand.New(rand.NewSource(int64(i)))
		r, err := transform.AcquireInsertionRunner(st, qrng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ers.Count(r, p, qrng); err != nil {
			b.Fatal(err)
		}
		queries += r.Queries()
		r.Release()
	}
	b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
}

func benchFGPTurnstile(b *testing.B, parallelism int) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	g := gen.ErdosRenyiGNM(rng, 200, 1500)
	pl, err := fgp.NewPlan(pattern.Triangle())
	if err != nil {
		b.Fatal(err)
	}
	st := stream.WithDeletions(g, 0.3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := transform.NewTurnstileRunner(st, rng)
		r.SetParallelism(parallelism)
		if _, err := fgp.CountParallel(r, pl, 2000, rng, parallelism); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFGPTurnstilePass(b *testing.B)           { benchFGPTurnstile(b, 0) }
func BenchmarkFGPTurnstilePassSequential(b *testing.B) { benchFGPTurnstile(b, 1) }

// sessionBenchWorkload is a shared workload for the session benchmarks: K
// triangle-counting jobs over one 50k-update stream replayed from its disk
// spill — the regime the session engine exists for, where every pass is real
// I/O and decoding. K sequential jobs cost 3K file replays; one session costs 3.
func sessionBenchWorkload(b *testing.B) (streamcount.Stream, []core.Config) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g := gen.ErdosRenyiGNM(rng, 2000, 50000)
	path := b.TempDir() + "/stream.txt"
	if err := stream.WriteFile(path, stream.FromGraph(g)); err != nil {
		b.Fatal(err)
	}
	st, err := streamcount.OpenStreamFile(path)
	if err != nil {
		b.Fatal(err)
	}
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	cfgs := make([]core.Config, k)
	for i := range cfgs {
		cfgs[i] = core.Config{Pattern: p, Trials: 2000, Seed: int64(i + 1)}
	}
	return st, cfgs
}

// BenchmarkSessionSharedReplay runs K jobs through one session: every round
// k across the jobs is served by a single shared pass.
func BenchmarkSessionSharedReplay(b *testing.B) {
	st, cfgs := sessionBenchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSession(st)
		handles := make([]*core.JobHandle, len(cfgs))
		for j, cfg := range cfgs {
			handles[j] = s.Submit(core.Job{Kind: core.JobEstimate, Config: cfg})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		for _, h := range handles {
			if _, err := h.Estimate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionSequentialJobs is the baseline the shared replay is
// measured against: the same K jobs as standalone calls, each replaying the
// stream privately.
func BenchmarkSessionSequentialJobs(b *testing.B) {
	st, cfgs := sessionBenchWorkload(b)
	queries := make([]streamcount.TypedQuery[*streamcount.CountResult], len(cfgs))
	for i, cfg := range cfgs {
		queries[i] = streamcount.CountQuery(cfg.Pattern,
			streamcount.WithTrials(cfg.Trials), streamcount.WithSeed(cfg.Seed))
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := streamcount.Run(ctx, st, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineContinuousAdmission measures the long-lived Engine serving
// the same K-job wave as the session benchmarks, submitted concurrently at
// run time: the admission controller groups the arrivals into shared-replay
// generations, so a wave costs ~3 file replays like a pre-declared session,
// without knowing the batch in advance.
func BenchmarkEngineContinuousAdmission(b *testing.B) {
	st, cfgs := sessionBenchWorkload(b)
	queries := make([]streamcount.TypedQuery[*streamcount.CountResult], len(cfgs))
	for i, cfg := range cfgs {
		queries[i] = streamcount.CountQuery(cfg.Pattern,
			streamcount.WithTrials(cfg.Trials), streamcount.WithSeed(cfg.Seed))
	}
	e := streamcount.NewEngine(st, streamcount.WithAdmissionWindow(2*time.Millisecond))
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func(q streamcount.TypedQuery[*streamcount.CountResult]) {
				defer wg.Done()
				if _, err := streamcount.Do(ctx, e, q); err != nil {
					b.Error(err)
				}
			}(q)
		}
		wg.Wait()
	}
}

// BenchmarkEngineSessionRunBackToBack is the pre-engine baseline for the
// same wave: a fresh one-shot session per wave, with the batch known up
// front.
func BenchmarkEngineSessionRunBackToBack(b *testing.B) {
	st, cfgs := sessionBenchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSession(st)
		handles := make([]*core.JobHandle, len(cfgs))
		for j, cfg := range cfgs {
			handles[j] = s.Submit(core.Job{Kind: core.JobEstimate, Config: cfg})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		for _, h := range handles {
			if _, err := h.Estimate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineWatchIngestLoop measures the standing-query hot loop at
// several resident stream lengths: append a batch to a live stream, then
// wait for the watch event pinned at (or past) the new version. Each
// iteration is one append→event round trip, so ns/op is the per-event
// latency a monitoring client experiences — version notification,
// incremental checkpoint evaluation (DESIGN.md §10) and typed delivery.
// The stream is prefilled, and the registration-triggered event over the
// prefill prefix (which pays the one-time index build) is drained outside
// the timed section; with the checkpoint fast path the timed cost stays
// flat in the stream length instead of growing with every replayed prefix.
func BenchmarkEngineWatchIngestLoop(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("len=%d", size), func(b *testing.B) {
			benchWatchIngestLoop(b, size)
		})
	}
}

func benchWatchIngestLoop(b *testing.B, prefill int) {
	const n = 2000
	const batch = 64
	rng := rand.New(rand.NewSource(12))
	g := gen.ErdosRenyiGNM(rng, n, 128*(1<<10))
	ups := stream.FromGraph(g).Updates()
	if prefill+batch > len(ups) {
		b.Fatalf("workload too small: %d updates for prefill %d", len(ups), prefill)
	}

	app, err := streamcount.NewAppendableStream(n, streamcount.AppendableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e := streamcount.NewEngine(app)
	defer e.Close()
	if _, err := e.Append("", ups[:prefill]); err != nil {
		b.Fatal(err)
	}

	p, _ := streamcount.PatternByName("triangle")
	sub, err := streamcount.Watch(context.Background(), e, "", streamcount.CountQuery(p,
		streamcount.WithTrials(64), streamcount.WithSeed(1)))
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()

	// Drain the initial evaluation of the prefilled prefix outside the timed
	// section: it pays the cold O(stream) index build that every later event
	// amortizes away.
	if ev, ok := <-sub.Events(); !ok || ev.Err != nil {
		b.Fatalf("watch ended: %v", sub.Err())
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := prefill + (i*batch)%(len(ups)-prefill-batch)
		v, err := e.Append("", ups[start:start+batch])
		if err != nil {
			b.Fatal(err)
		}
		for {
			ev, ok := <-sub.Events()
			if !ok || ev.Err != nil {
				b.Fatalf("watch ended: %v", sub.Err())
			}
			if ev.StreamVersion >= v {
				break
			}
		}
	}
	b.StopTimer()
}

// BenchmarkServerIngestAndQuery measures the whole service layer per
// operation: one HTTP client creates a live stream, ingests a graph in
// batched appends, and runs two concurrent count queries — the daemon's
// steady-state request mix, including JSON codec, admission, generation
// pinning and shared replay.
func BenchmarkServerIngestAndQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := gen.ErdosRenyiGNM(rng, 200, 3000)
	var updates []byte
	{
		type updateJSON struct {
			U int64 `json:"u"`
			V int64 `json:"v"`
		}
		var ups []updateJSON
		for _, u := range stream.FromGraph(g).Updates() {
			ups = append(ups, updateJSON{U: u.Edge.U, V: u.Edge.V})
		}
		var err error
		if updates, err = json.Marshal(map[string]any{"updates": ups}); err != nil {
			b.Fatal(err)
		}
	}

	srv, err := server.New(server.Options{Window: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			b.Error(err)
		}
	}()
	client := ts.Client()
	post := func(path string, body []byte) ([]byte, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode >= 300 {
			err = fmt.Errorf("%s: %s", resp.Status, data)
		}
		return data, err
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("s%d", i)
		if _, err := post("/v1/streams", []byte(fmt.Sprintf(`{"name":%q,"n":200}`, name))); err != nil {
			b.Fatal(err)
		}
		if _, err := post("/v1/streams/"+name+"/edges", updates); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"stream":%q,"pattern":"triangle","trials":2000,"seed":%d}`, name, q)
				if _, err := post("/v1/queries", []byte(body)); err != nil {
					b.Error(err)
				}
			}(q)
		}
		wg.Wait()
	}
}

// BenchmarkServerCachedQuery measures the memoized query path end to end:
// a cache-enabled server answers the same version-pinned query over HTTP on
// every iteration. After the untimed cold run, each request is a result
// cache hit — JSON codec and routing still run, but no generation is
// admitted and no pass replays — so this number against the cold path in
// BenchmarkServerIngestAndQuery is the cache's whole-service win.
func BenchmarkServerCachedQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := gen.ErdosRenyiGNM(rng, 200, 3000)
	var updates []byte
	{
		type updateJSON struct {
			U int64 `json:"u"`
			V int64 `json:"v"`
		}
		var ups []updateJSON
		for _, u := range stream.FromGraph(g).Updates() {
			ups = append(ups, updateJSON{U: u.Edge.U, V: u.Edge.V})
		}
		var err error
		if updates, err = json.Marshal(map[string]any{"updates": ups}); err != nil {
			b.Fatal(err)
		}
	}

	srv, err := server.New(server.Options{Window: time.Millisecond, ResultCacheMB: 64})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			b.Error(err)
		}
	}()
	client := ts.Client()
	post := func(path string, body []byte) ([]byte, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode >= 300 {
			err = fmt.Errorf("%s: %s", resp.Status, data)
		}
		return data, err
	}

	// Untimed: stream, ingestion, and the one cold run that populates the
	// cache entry every timed iteration hits.
	if _, err := post("/v1/streams", []byte(`{"name":"cached","n":200}`)); err != nil {
		b.Fatal(err)
	}
	if _, err := post("/v1/streams/cached/edges", updates); err != nil {
		b.Fatal(err)
	}
	query := []byte(`{"stream":"cached","pattern":"triangle","trials":2000,"seed":7}`)
	cold, err := post("/v1/queries", query)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := post("/v1/queries", query)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(warm, cold) {
			b.Fatalf("cached response diverged from the cold run:\n  cold: %s\n  warm: %s", cold, warm)
		}
	}
}

// BenchmarkStreamPassThroughput measures the pass engine's replay hot path:
// the batched API the runners consume the stream through.
func BenchmarkStreamPassThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := gen.ErdosRenyiGNM(rng, 2000, 50000)
	st := stream.FromGraph(g)
	b.SetBytes(int64(st.Len()) * 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cnt int64
		if err := st.ForEachBatch(func(batch []stream.Update) error {
			cnt += int64(len(batch))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if cnt != st.Len() {
			b.Fatalf("replayed %d of %d updates", cnt, st.Len())
		}
	}
}

// benchStreamFile writes the insert-count workload's 100k-line file, edges in
// random order, and returns its path and size.
func benchStreamFile(b *testing.B) (string, int64) {
	rng := rand.New(rand.NewSource(6))
	path := filepath.Join(b.TempDir(), "stream.txt")
	if err := stream.WriteFile(path, stream.Shuffled(stream.FromGraph(gen.ErdosRenyiGNM(rng, 2000, 100000)), rng)); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, info.Size()
}

// BenchmarkOpenFile measures opening a file-backed stream: the one scan that
// parses and validates the 100k-line file, and the spill of packed blocks it
// writes for the passes to replay.
func BenchmarkOpenFile(b *testing.B) {
	path, size := benchStreamFile(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.OpenFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPassFile measures one replay of a file-backed stream over
// the same file: its spill read block by block, each block's checksum checked
// and its packed keys decoded into the update batches. The read buffer and
// the batch come from a pool, so a pass allocates nothing.
func BenchmarkStreamPassFile(b *testing.B) {
	path, size := benchStreamFile(b)
	st, err := stream.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cnt int64
		if err := st.ForEachBatch(func(batch []stream.Update) error {
			cnt += int64(len(batch))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if cnt != st.Len() {
			b.Fatalf("replayed %d of %d updates", cnt, st.Len())
		}
	}
}

// BenchmarkStreamPassSegments measures one replay of a durable log — the
// same 100k edges in random order, appended to an Appendable with a segment
// directory — through a pinned View: three sealed 32768-update segments read
// from disk, their records checksummed and decoded, then the in-memory tail.
// Segment replay borrows the file replay's pooled block and batch, so a pass
// allocates only what opening the three segment files does.
func BenchmarkStreamPassSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	st := stream.Shuffled(stream.FromGraph(gen.ErdosRenyiGNM(rng, 2000, 100000)), rng)
	app, err := stream.NewAppendable(st.N(), stream.AppendableOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	if err := st.ForEachBatch(func(batch []stream.Update) error {
		_, err := app.Append(batch)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	view := app.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cnt int64
		if err := view.ForEachBatch(func(batch []stream.Update) error {
			cnt += int64(len(batch))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if cnt != view.Len() {
			b.Fatalf("replayed %d of %d updates", cnt, view.Len())
		}
	}
}

// BenchmarkReservoirBankSweep offers a 100k-key stream in DefaultBatchSize
// batches to 20 000 bank slots — the reservoirs of one insert-count round —
// and reports the cost per accept. Accepts are counted off to the side: a
// slot's accept positions depend only on its seed, through the draws of
// rand.New(sketch.NewSplitMix64(seed)).
func BenchmarkReservoirBankSweep(b *testing.B) {
	const slots, total = 20000, 100000
	keys := make([]uint64, total)
	for i := range keys {
		keys[i] = uint64(i)
	}
	accepts := 0
	for i := 0; i < slots; i++ {
		rng := rand.New(sketch.NewSplitMix64(uint64(i) + 1))
		for next := int64(1); next <= total; accepts++ {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			next = max(int64(math.Ceil(float64(next)/u)), next+1)
		}
	}
	var bank sketch.ReservoirBank
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bank.Reset(slots)
		for i := 0; i < slots; i++ {
			bank.Seed(i, uint64(i)+1)
		}
		for lo := 0; lo < total; lo += stream.DefaultBatchSize {
			bank.OfferKeysRange(0, slots, keys[lo:min(lo+stream.DefaultBatchSize, total)])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accepts), "ns/accept")
}

// benchClusterNodes starts n in-process cluster nodes over real HTTP
// listeners and returns their seed URLs. The swap indirection exists
// because peer addresses must be known before the servers can be built.
func benchClusterNodes(b *testing.B, n int) []string {
	b.Helper()
	type swap struct{ h atomic.Value }
	serve := func(sw *swap, w http.ResponseWriter, r *http.Request) {
		if h, _ := sw.h.Load().(http.Handler); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
	}
	seeds := make([]string, 0, n)
	peers := make([]wire.ClusterNode, n)
	swaps := make([]*swap, n)
	for i := range peers {
		sw := &swap{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { serve(sw, w, r) }))
		b.Cleanup(ts.Close)
		swaps[i] = sw
		peers[i] = wire.ClusterNode{ID: fmt.Sprintf("n%d", i+1), Addr: ts.URL}
		seeds = append(seeds, ts.URL)
	}
	for i := range peers {
		srv, err := server.New(server.Options{
			Window:       time.Millisecond,
			ClusterNode:  peers[i].ID,
			ClusterPeers: peers,
		})
		if err != nil {
			b.Fatal(err)
		}
		swaps[i].h.Store(http.Handler(srv))
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Close(ctx); err != nil {
				b.Error(err)
			}
		})
	}
	return seeds
}

// BenchmarkClusterRoutedIngestAndQuery is BenchmarkServerIngestAndQuery
// through the cluster routing layer: a 3-node in-process cluster and a
// map-caching client that sends every create, append and query to the
// stream's owner. The delta over the single-server benchmark is the price
// of routing (map lookups, per-node connection reuse, idempotency keys) —
// wrong-node redirects cost extra and don't occur on the steady-state path.
func BenchmarkClusterRoutedIngestAndQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := gen.ErdosRenyiGNM(rng, 200, 3000)
	updates := stream.FromGraph(g).Updates()

	seeds := benchClusterNodes(b, 3)
	cl, err := client.NewCluster(seeds)
	if err != nil {
		b.Fatal(err)
	}
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := cl.CreateStream(ctx, name, 200); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Append(ctx, name, updates); err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				if _, err := streamcount.DoOn(ctx, cl, name, streamcount.CountQuery(p,
					streamcount.WithTrials(2000), streamcount.WithSeed(int64(q)))); err != nil {
					b.Error(err)
				}
			}(q)
		}
		wg.Wait()
	}
}
