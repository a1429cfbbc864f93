// Package streamcount approximately counts subgraphs in graph streams.
//
// It implements the algorithms of "Approximately Counting Subgraphs in Data
// Streams" (Fichtenberger & Peng, PODS 2022, arXiv:2203.14225):
//
//   - a 3-pass turnstile streaming algorithm that (1±ε)-approximates the
//     number of copies of an arbitrary constant-size subgraph H using
//     Õ(m^ρ(H)/(ε²·#H)) space, where ρ(H) is H's fractional edge-cover
//     number (Theorem 1);
//   - a 5r-pass insertion-only streaming algorithm that (1±ε)-approximates
//     the number of r-cliques in graphs of degeneracy λ using
//     (mλ^{r-2}/#K_r)·poly(log n, 1/ε) space (Theorem 2);
//   - the generic transformation behind both: any k-round adaptive
//     sublinear-time algorithm in the (augmented) general graph query model
//     becomes a k-pass streaming algorithm (Theorems 9 and 11).
//
// # Queries
//
// Work is described by typed queries, built with constructors and
// functional options and returning typed results:
//
//	p, _ := streamcount.PatternByName("triangle")
//	st, _ := streamcount.NewStream(n, updates)
//	est, _ := streamcount.Run(ctx, st, streamcount.CountQuery(p,
//	    streamcount.WithTrials(100000),
//	    streamcount.WithSeed(1),
//	))
//	fmt.Println(est.Value, est.Passes) // ≈ #triangles, 3
//
// CountQuery, SampleQuery, CliqueQuery, AutoQuery and DistinguishQuery
// cover the paper's estimation, sampling and decision variants; Run
// executes one query over a stream under a context — cancellation is
// checked between the update batches of every pass, and errors wrap typed
// sentinels (ErrBadPattern, ErrCanceled, ...) for errors.Is dispatch.
//
// # Engine
//
// To serve many queries over one stream — the embedded-in-a-server case —
// create a long-lived Engine. Submit (or the typed Do) may be called from
// any goroutine at any time; an admission controller groups queries that
// arrive close together into shared-replay generations, so K overlapping
// queries cost max-rounds passes over the stream per generation instead of
// the sum, and each result is bit-identical to a standalone run:
//
//	e := streamcount.NewEngine(st)
//	defer e.Close()
//	// from any goroutine, at any time:
//	est, err := streamcount.Do(ctx, e, streamcount.CountQuery(p, streamcount.WithTrials(100000)))
//
// Engines also hold a named-stream registry (RegisterStream / DoOn) so one
// service instance can answer queries over many streams independently.
//
// # Live ingestion
//
// Streams can grow while being served. An AppendableStream is a versioned
// append-only edge log: Append publishes a batch and returns the new
// version, and each admission generation pins the version current at its
// barrier, so every query runs over one immutable prefix and its Outcome
// reports that StreamVersion. Results are bit-identical to standalone runs
// at the pinned (seed, version) regardless of concurrent appends:
//
//	app, _ := streamcount.NewAppendableStream(n, streamcount.AppendableOptions{})
//	e := streamcount.NewEngine(app)
//	v, _ := e.Append("", updates) // safe while queries are in flight
//
// cmd/streamcountd serves this over HTTP/JSON (DESIGN.md §7).
//
// # Standing queries
//
// For continuous monitoring — "keep the triangle estimate tracking this
// growing stream" — register a query once with Watch and consume a stream
// of version-pinned events instead of polling Submit:
//
//	sub, _ := streamcount.Watch(ctx, e, "", streamcount.CountQuery(p,
//	    streamcount.WithTrials(100000), streamcount.WithSeed(7)))
//	for ev := range sub.Events() {
//	    if ev.Err != nil { break } // terminal; sub.Err() reports why
//	    fmt.Println(ev.StreamVersion, ev.Result.Value)
//	}
//
// The watch re-admits the query whenever the stream's version advances: by
// default it coalesces to the newest version at each evaluation
// (WatchLatest); WatchEveryVersion evaluates every published version in
// order. Each event evaluates at the derived seed WatchSeedAt(seed,
// version), so it is bit-identical to a standalone run over that exact
// prefix — reproducible from (seed, version) in any process. Subscriptions
// end with a terminal error (Close → ErrWatchClosed, context cancel →
// ErrCanceled, engine shutdown → ErrEngineClosed) and never leak
// goroutines.
//
// Do, DoOn and Watch accept the Querier/Watcher interfaces, implemented by
// both *Engine and the client package's Client (the Go SDK for
// streamcountd), so the same code — one-shot or watch-loop — runs
// unchanged in-process or against a remote daemon (DESIGN.md §8). When
// streams shard across several daemons (cluster mode, DESIGN.md §11),
// client.NewCluster returns a routing implementation of the same
// interfaces: it caches the cluster's consistent-hash map, sends every
// call to the stream's owning node, follows typed wrong_node redirects,
// and keeps watches gap-free across live stream transfers — responses
// stay bit-identical to a single local engine.
//
// # Parallelism and determinism
//
// Stream replay is batched, the FGP trials are processed concurrently, and
// a turnstile pass updates its ℓ0-samplers in parallel; an insertion pass
// has one worker. WithParallelism bounds the worker count — 0 means
// GOMAXPROCS, 1 forces the sequential path. For a fixed WithSeed the result
// is bit-identical at any parallelism, standalone or inside any engine
// generation, even after cancellations; see DESIGN.md §2–§3 for the
// contract.
//
// # Querier and Watch
//
// Since the standing-query redesign, Do and DoOn take any Querier rather
// than the concrete *Engine. Existing call sites compile unchanged (an
// *Engine is a Querier); code that stored Do's target in a variable of its
// own can widen the type to Querier and gain the remote client for free.
// Polling loops over Submit migrate to Watch:
//
//	for { out, _ := e.Submit(ctx, q); ... }   ->  sub, _ := streamcount.Watch(ctx, e, "", q)
//	                                              for ev := range sub.Events() { ... }
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// architecture and the paper-faithfulness notes.
package streamcount
