package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamcount"
	"streamcount/internal/ers"
	"streamcount/internal/fgp"
	"streamcount/internal/oracle"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
	"streamcount/internal/wire"
)

// samples collects per-operation values by metric name; a metric's reported
// value is their median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// tracedRun is the state of one traced child run.
type tracedRun struct {
	cfg    runConfig
	n      int // operations per depth: a quarter of the untraced count
	tr     *tracer
	acc    samples
	fixed  map[string]float64 // metrics that are not medians of samples
	share  map[string]float64 // layer -> share of the traced op wall
	outs   []opOutcome        // untraced then facade-depth ops, by query index
	failed []string           // failures of ops that are not in outs
	extra  int                // operations attempted that are not in outs

	// gauge is read once before the first operation and after every one,
	// traced or not; at[k] is the trace op id of the k-th operation (0 for
	// an untraced one) and phase[k] the part of the run it belongs to.
	gauge speedGauge
	at    []int
	phase []int
}

// gaugeOp reads the gauge after an operation of the given phase; traced
// says whether the operation opened spans (it is then the tracer's current
// op).
func (t *tracedRun) gaugeOp(traced bool, phase int) int {
	t.gauge.sample()
	op := 0
	if traced {
		op = t.tr.op
	}
	t.at = append(t.at, op)
	t.phase = append(t.phase, phase)
	return len(t.at) - 1
}

// quiet reports which operations ran while the box was quiet (gauge.go): by
// reading index for every operation and by trace op id for traced ones.
func (t *tracedRun) quiet() ([]bool, map[int]bool) {
	q := t.gauge.quietOps(t.phase)
	byOp := map[int]bool{}
	for k, op := range t.at {
		if op != 0 {
			byOp[op] = q[k]
		}
	}
	return q, byOp
}

// runTraced measures the per-layer metrics of one workload: every
// operation runs untraced, traced through the facade, and traced one depth
// further down, and the differences are charged to the layer in between.
func runTraced(cfg runConfig) (runResult, runDetail, error) {
	sz, err := sizingFor(cfg.workload, cfg.tiny)
	if err != nil {
		return runResult{}, runDetail{}, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, sz, cfg.tmp)
	if err != nil {
		return runResult{}, runDetail{}, err
	}
	defer w.teardown()
	if err := w.setup(); err != nil {
		return runResult{}, runDetail{}, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	t := &tracedRun{cfg: cfg, n: max(2, scaledOps(sz.ops, cfg.scale)/4), tr: newTracer(),
		acc: samples{}, fixed: map[string]float64{}, share: map[string]float64{}}
	runtime.GC()
	t.gauge.sample()
	var res runResult
	var det runDetail
	switch lw := w.(type) {
	case *serviceMix:
		res, det = t.service(lw)
	case interface{ base() *libBase }:
		t.library(lw.base())
		res, det = score(t.outs, w)
	}
	res.Attempted += t.extra
	res.Failed += len(t.failed)
	det.Failures = append(det.Failures, t.failed...)
	res.Correct = res.Failed == 0
	det.LayerShare = t.share

	for name, unit := range perLayerUnits {
		v, ok := t.fixed[name]
		if !ok {
			v = median(t.acc[name]) // 0 when the workload bypasses the layer
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if cfg.traceOut != "" {
		var quietOps []int
		_, byOp := t.quiet()
		for op := 1; op <= t.tr.op; op++ {
			if byOp[op] {
				quietOps = append(quietOps, op)
			}
		}
		meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "ops_per_depth": t.n, "quiet_ops": quietOps}
		if err := t.tr.write(cfg.traceOut, meta); err != nil {
			return res, det, err
		}
	}
	return res, det, nil
}

func (t *tracedRun) fail(format string, args ...any) {
	t.failed = append(t.failed, fmt.Sprintf(format, args...))
}

// ---- library workloads ----------------------------------------------------

func (b *libBase) base() *libBase { return b }

// stackOutcome is one operation executed one depth below the facade.
type stackOutcome struct {
	value  float64
	passes int64
	space  int64
	widest []oracle.Query
	err    error
}

// stackOp runs query i the way core's executor does — plan, pooled runner
// over the (decorated) stream, algorithm over the (decorated) runner —
// without the session in between.
func (b *libBase) stackOp(i int, tr *tracer, acc samples) stackOutcome {
	tr.nextOp()
	ts := &tracedStream{Stream: b.st, tr: tr}
	root := tr.begin(spanStack)
	defer tr.end(root)

	rng := rand.New(rand.NewSource(int64(i)))
	var pl *fgp.Plan
	if b.ersParams == nil {
		id := tr.begin(spanPlan)
		var err error
		pl, err = fgp.NewPlan(triangle)
		tr.end(id)
		if err != nil {
			return stackOutcome{err: err}
		}
	}
	var inner interface {
		oracle.Runner
		Release()
	}
	if ts.InsertOnly() {
		r, err := transform.AcquireInsertionRunner(ts, rng)
		if err != nil {
			return stackOutcome{err: err}
		}
		r.SetParallelism(1)
		inner = r
	} else {
		r := transform.AcquireTurnstileRunner(ts, rng)
		r.SetParallelism(1)
		inner = r
	}
	run := &tracedRunner{Runner: inner, tr: tr}
	out := stackOutcome{}
	if b.ersParams != nil {
		id := tr.begin(spanERS)
		res, err := ers.Count(run, *b.ersParams, rng)
		tr.end(id)
		if err != nil {
			return stackOutcome{err: err}
		}
		out.value = res.Estimate
		acc.add("ers.rounds", float64(res.Rounds))
		acc.add("ers.aborted_ratio", float64(res.Aborted)/float64(max(1, len(res.PerInvocation))))
		s2 := make([]float64, len(res.S2Sizes))
		for k, s := range res.S2Sizes {
			s2[k] = float64(s)
		}
		acc.add("ers.s2_samples_p50", median(s2))
	} else {
		id := tr.begin(spanFGP)
		res, err := fgp.CountParallel(run, pl, b.sz.trials, rng, 1)
		tr.end(id)
		if err != nil {
			return stackOutcome{err: err}
		}
		out.value = res.Estimate
		acc.add("fgp.hit_ratio", float64(res.Hits)/float64(res.Trials))
	}
	out.passes, out.space = ts.passes, inner.SpaceWords()
	out.widest = run.widest
	acc.add("transform.oracle_queries", float64(run.queries))
	acc.add("transform.answer_ok_ratio", float64(run.ok)/float64(max(1, run.queries)))
	acc.add("stream.updates_replayed", float64(ts.updates))
	inner.Release()
	return out
}

func (t *tracedRun) library(b *libBase) {
	type trio struct {
		plain, fac     time.Duration
		plainAt, facAt int // which operations of the gauge they were
	}
	var trios []trio
	var widest []oracle.Query
	for i := 0; i < t.n; i++ {
		plain := b.op(i, nil)
		plainAt := t.gaugeOp(false, 0)
		fac := b.op(i, t.tr)
		facAt := t.gaugeOp(true, 0)
		stk := b.stackOp(i, t.tr, t.acc)
		t.gaugeOp(true, 0)
		t.outs = append(t.outs, plain)
		t.extra += 2
		if plain.res == nil {
			continue
		}
		trios = append(trios, trio{plain.latency, fac.latency, plainAt, facAt})
		// Depths must agree bit for bit, or a decorator changed the run.
		if fac.fail != "" || fac.res == nil || *fac.res != *plain.res {
			t.fail("query %d: traced facade run gives %+v (%s), untraced %+v", i, fac.res, fac.fail, plain.res)
		}
		switch {
		case stk.err != nil:
			t.fail("query %d: stack depth: %v", i, stk.err)
		case math.IsNaN(stk.value) || math.IsInf(stk.value, 0):
			t.fail("query %d: stack depth estimate %v", i, stk.value)
		case stk.value != plain.res.Value || stk.passes != plain.res.Passes || stk.space != plain.res.SpaceWords:
			t.fail("query %d: stack depth gives (%v, %d passes, %d words), facade (%v, %d, %d)", i,
				stk.value, stk.passes, stk.space, plain.res.Value, plain.res.Passes, plain.res.SpaceWords)
		}
		if widest == nil {
			widest = stk.widest
		}
	}
	quiet, quietOp := t.quiet()
	var plainLat, tracedLat []float64
	for _, tr := range trios {
		if quiet[tr.plainAt] {
			plainLat = append(plainLat, ms(tr.plain))
		}
		if quiet[tr.facAt] {
			tracedLat = append(tracedLat, ms(tr.fac))
		}
	}
	t.fixed["trace.overhead_frac"] = median(tracedLat)/median(plainLat) - 1

	// Spans -> per-op layer times, over the quiet operations. Operations
	// alternate facade, stack; an operation's layer times count when the
	// stack-depth run was quiet, the session overhead when both were.
	var facadeSum, stackSum float64 // over pairs quiet at both depths
	var facade opSummary
	layerSelf := map[string]float64{}
	for _, o := range t.tr.summarize() {
		switch o.root {
		case spanFacade:
			facade = o
		case spanStack:
			if !quietOp[o.op] {
				continue
			}
			if quietOp[facade.op] {
				t.acc.add("core.session_overhead_ms", (facade.wall-o.wall)/1e6)
				facadeSum += facade.wall
				stackSum += o.wall
			}
			t.acc.add("stream.replay_ms", o.self[spanPass]/1e6)
			if u := float64(o.count[spanPass]) * float64(b.st.Len()); u > 0 {
				t.acc.add("stream.replay_ns_per_update", o.self[spanPass]/u)
			}
			t.acc.add("stream.passes", float64(o.count[spanPass]))
			t.acc.add("transform.consume_ms", o.total[spanConsume]/1e6)
			t.acc.add("transform.round_edge_ms", o.self[spanRound]/1e6)
			if b.ersParams != nil {
				t.acc.add("ers.self_ms", o.self[spanERS]/1e6)
			} else {
				t.acc.add("fgp.self_ms", o.self[spanFGP]/1e6)
				t.acc.add("fgp.plan_us", o.total[spanPlan]/1e3)
			}
			layerSelf["core"] += o.self[spanStack]
			layerSelf["stream"] += o.self[spanPass]
			layerSelf["transform"] += o.self[spanRound] + o.total[spanConsume]
			layerSelf["fgp"] += o.self[spanFGP] + o.total[spanPlan]
			layerSelf["ers"] += o.self[spanERS]
		}
	}
	// Where the time went: the stack-depth self times as shares of the
	// stack-depth operation, scaled down by what the facade depth costs on
	// top — the session, which is core's.
	session := 0.0
	if facadeSum > 0 {
		session = (facadeSum - stackSum) / facadeSum
	}
	var stackAll float64
	for _, ns := range layerSelf {
		stackAll += ns
	}
	for layer, ns := range layerSelf {
		if ns > 0 && stackAll > 0 {
			t.share[layer] = ns / stackAll * (1 - session)
		}
	}
	t.share["core"] += session

	l0u, l0s, off := sketchKernels(b.st.N(), collectKeys(b.st))
	t.fixed["sketch.l0_update_ns"], t.fixed["sketch.l0_sample_ns"], t.fixed["sketch.reservoir_offer_ns"] = l0u, l0s, off
	if len(widest) > 0 {
		t.fixed["transform.shard2_ratio"] = shard2Ratio(b.st, widest)
	}
}

// ---- service-mix ------------------------------------------------------------

// engineCycle is one service-mix cycle executed in-process on the server's
// own engine: the same four legs without HTTP, then the cold query once
// more as a standalone run over its pinned prefix, with the stream
// decorated so the segment replay shows. Its timings are its spans. It
// returns the updates the standalone run replayed and why the cycle failed.
func (w *serviceMix) engineCycle(i int, tr *tracer, sub *streamcount.Subscription[*streamcount.CountResult]) (int64, string) {
	ctx := context.Background()
	eng := w.srv.Engine()
	app, ok := w.appendable()
	if !ok || w.next+w.sz.delta > len(w.ups) {
		return 0, fmt.Sprintf("cycle %d: stream unavailable or exhausted", i)
	}
	tr.nextOp()
	root := tr.begin(spanEngCycle)
	defer tr.end(root)

	ups := w.ups[w.next : w.next+w.sz.delta]
	id := tr.begin(spanEngAppend)
	v, err := eng.Append(webStream, ups)
	tr.end(id)
	if err != nil {
		return 0, fmt.Sprintf("cycle %d: engine append: %v", i, err)
	}
	w.next += len(ups)
	for _, u := range ups {
		w.truth.add(u.Edge.U, u.Edge.V)
	}
	id = tr.begin(spanEngWatch)
	var evErr error
	select {
	case ev, ok := <-sub.Events():
		if !ok || ev.Err != nil || ev.StreamVersion != v {
			evErr = fmt.Errorf("in-process watch event %+v (open %v), want version %d", ev, ok, v)
		}
	case <-time.After(30 * time.Second):
		evErr = fmt.Errorf("no in-process watch event for version %d", v)
	}
	tr.end(id)
	if evErr != nil {
		return 0, fmt.Sprintf("cycle %d: %v", i, evErr)
	}

	q := w.coldQuery(i)
	id = tr.begin(spanEngCold)
	cold, err := eng.SubmitOn(ctx, webStream, q)
	tr.end(id)
	if err != nil || cold.Count == nil {
		return 0, fmt.Sprintf("cycle %d: engine cold query: %v", i, err)
	}
	id = tr.begin(spanEngCached)
	hit, err := eng.SubmitOn(ctx, webStream, q)
	tr.end(id)
	if err != nil || hit.Count == nil || *hit.Count != *cold.Count {
		return 0, fmt.Sprintf("cycle %d: engine cached query: %+v (%v), cold %+v", i, hit.Count, err, cold.Count)
	}

	view, err := app.At(cold.StreamVersion)
	if err != nil {
		return 0, fmt.Sprintf("cycle %d: view at %d: %v", i, cold.StreamVersion, err)
	}
	ts := &tracedStream{Stream: view, tr: tr}
	id = tr.begin(spanEngRun)
	alone, err := streamcount.Run(ctx, ts, q)
	tr.end(id)
	if err != nil || *alone != *cold.Count {
		return 0, fmt.Sprintf("cycle %d: standalone run at version %d gives %+v (%v), engine %+v", i, cold.StreamVersion, alone, err, cold.Count)
	}
	return ts.updates, ""
}

func (t *tracedRun) service(w *serviceMix) (runResult, runDetail) {
	eng := w.srv.Engine()
	n := t.n

	// Depths 0 and 1, interleaved so that both see the same stream lengths:
	// even cycles run untraced (the baseline of trace.overhead_frac and the
	// service legs' own latencies), odd cycles traced through the client.
	rc0, gen0 := eng.ResultCacheStats(), eng.Generations()
	at := make([]int, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = t.tr
		}
		t.outs = append(t.outs, w.cycle(i, tr))
		at = append(at, t.gaugeOp(tr != nil, 0))
	}
	rc1 := eng.ResultCacheStats()
	if lookups := (rc1.Hits - rc0.Hits) + (rc1.Misses - rc0.Misses); lookups > 0 {
		t.fixed["rcache.hit_ratio"] = float64(rc1.Hits-rc0.Hits) / float64(lookups)
	}
	t.fixed["core.generations_per_query"] = float64(eng.Generations()-gen0) / float64(4*n)
	res, det := score(t.outs, w)
	t.fixed["client.retries"] = float64(w.retries())

	// Depth 2: the engine in-process. The SSE watch is closed first so that
	// each append still feeds exactly one standing watch.
	w.sub.Close()
	w.sub = nil
	sub, err := streamcount.Watch(context.Background(), eng, webStream, w.watchQuery(),
		streamcount.WatchEveryVersion(), streamcount.WatchAfter(int64(w.next)))
	if err != nil {
		t.extra++
		t.fail("in-process watch: %v", err)
		return res, det
	}
	defer sub.Close()
	ck0 := eng.WatchCheckpointStats()
	var replayed []float64
	for i := 2 * n; i < 3*n; i++ {
		t.extra++
		updates, msg := w.engineCycle(i, t.tr, sub)
		t.gaugeOp(true, 1)
		if msg != "" {
			t.fail("%s", msg)
			continue
		}
		replayed = append(replayed, float64(updates))
	}
	ck1 := eng.WatchCheckpointStats()
	if evals := (ck1.Hits - ck0.Hits) + (ck1.Misses - ck0.Misses); evals > 0 {
		t.fixed["core.watch_checkpoint_hit_ratio"] = float64(ck1.Hits-ck0.Hits) / float64(evals)
	}

	// Untraced cycles: the service legs as a client sees them.
	quiet, quietOp := t.quiet()
	var plainCold []float64
	for i := 0; i < 2*n; i += 2 {
		if o := t.outs[i]; o.res != nil && quiet[at[i]] {
			plainCold = append(plainCold, ms(o.latency))
			t.acc.add("append_p50_ms", ms(o.appendLat))
			t.acc.add("watch_event_p50_ms", ms(o.watchLat))
			t.acc.add("cached_query_p50_ms", ms(o.cachedLat))
		}
	}
	// Traced cycles at both depths: every leg is a span.
	var tracedCold, clientAppend, clientCached, engAppend []float64
	sum := map[string]float64{}
	cycles := map[string]float64{}
	for _, o := range t.tr.summarize() {
		if !quietOp[o.op] {
			continue
		}
		cycles[o.root]++
		for name, ns := range o.total {
			sum[name] += ns
		}
		switch o.root {
		case spanSrvCycle:
			tracedCold = append(tracedCold, o.total[spanSrvCold]/1e6)
			clientAppend = append(clientAppend, o.total[spanSrvAppend]/1e6)
			clientCached = append(clientCached, o.total[spanSrvCached]/1e3)
		case spanEngCycle:
			sum["self."+spanPass] += o.self[spanPass]
			sum["self."+spanEngRun] += o.self[spanEngRun]
			engAppend = append(engAppend, o.total[spanEngAppend]/1e6)
			t.acc.add("core.watch_eval_ms_p50", (o.total[spanEngAppend]+o.total[spanEngWatch])/1e6)
			t.acc.add("rcache.hit_us_p50", o.total[spanEngCached]/1e3)
			t.acc.add("core.engine_overhead_ms", (o.total[spanEngCold]-o.total[spanEngRun])/1e6)
			t.acc.add("stream.replay_ms", o.self[spanPass]/1e6)
			t.acc.add("stream.passes", float64(o.count[spanPass]))
			t.acc.add("transform.consume_ms", o.total[spanConsume]/1e6)
		}
	}
	t.fixed["trace.overhead_frac"] = median(tracedCold)/median(plainCold) - 1
	t.fixed["server.append_overhead_ms_p50"] = median(clientAppend) - median(engAppend)
	t.fixed["server.http_overhead_us_p50"] = median(clientCached) - median(t.acc["rcache.hit_us_p50"])
	t.fixed["stream.updates_replayed"] = median(replayed)
	if u := median(replayed); u > 0 {
		t.fixed["stream.replay_ns_per_update"] = median(t.acc["stream.replay_ms"]) * 1e6 / u
	}
	// Where the time went, by depth difference: what a client cycle costs
	// beyond the same cycle in-process is the server, wire and client; what
	// the engine's cold query costs beyond the standalone run is core; the
	// standalone run splits into its stream replay, its consumer and the rest.
	if c, e := cycles[spanSrvCycle], cycles[spanEngCycle]; c > 0 && e > 0 {
		per := func(name string) float64 { return sum[name] / e }
		cycle := sum[spanSrvCycle] / c
		engLegs := per(spanEngAppend) + per(spanEngWatch) + per(spanEngCold) + per(spanEngCached)
		t.share["server"] = (cycle - engLegs) / cycle
		t.share["rcache"] = per(spanEngCached) / cycle
		t.share["core"] = (per(spanEngAppend) + per(spanEngWatch) + per(spanEngCold) - per(spanEngRun)) / cycle
		t.share["stream"] = per("self."+spanPass) / cycle
		t.share["transform"] = per(spanConsume) / cycle
		// The standalone run's own time: session, fgp and the runner's
		// Begin/EndRound, which only the stack depth of a library workload
		// can tell apart.
		t.share["fgp+transform.round"] = per("self."+spanEngRun) / cycle
	}

	t.fixed["wire.codec_us"] = wireCodecKernel()
	t.fixed["stream.append_ms_p50"] = t.appendKernel(w)
	t.fixed["stream.segment_bytes_per_update"] = float64(dirBytes(filepath.Join(w.dir, webStream))) / float64(w.next)
	l0u, l0s, off := sketchKernels(w.sz.n, keysOf(w.sz.n, w.ups[:w.sz.prefill]))
	t.fixed["sketch.l0_update_ns"], t.fixed["sketch.l0_sample_ns"], t.fixed["sketch.reservoir_offer_ns"] = l0u, l0s, off
	return res, det
}

func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// ---- kernels: leaf functions no decorator can isolate -------------------------

// appendKernel times the stream layer's own durable append — the same Δ on
// a log prefilled like the service's — without engine, server or client.
func (t *tracedRun) appendKernel(w *serviceMix) float64 {
	dir, err := os.MkdirTemp(t.cfg.tmp, "append-kernel-")
	if err != nil {
		t.fail("append kernel: %v", err)
		return 0
	}
	defer os.RemoveAll(dir)
	app, err := stream.NewAppendable(w.sz.n, stream.AppendableOptions{Dir: dir})
	if err != nil {
		t.fail("append kernel: %v", err)
		return 0
	}
	defer app.Close()
	next := 0
	for next < w.sz.prefill {
		hi := min(next+w.sz.prefillStep, w.sz.prefill)
		if _, err := app.Append(w.ups[next:hi]); err != nil {
			t.fail("append kernel: %v", err)
			return 0
		}
		next = hi
	}
	var lat []float64
	for k := 0; k < t.n && next+w.sz.delta <= len(w.ups); k++ {
		t0 := time.Now()
		_, err := app.Append(w.ups[next : next+w.sz.delta])
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			t.fail("append kernel: %v", err)
			return 0
		}
		next += w.sz.delta
	}
	return median(lat)
}

// wireCodecKernel is the JSON encode+decode of one query and one result,
// in microseconds.
func wireCodecKernel() float64 {
	q := wire.Query{Stream: webStream, Kind: "count", Pattern: "triangle", Trials: 20000, Seed: 17, Parallelism: 1, Epsilon: 0.1}
	r := wire.QueryResult{Kind: "count", Stream: webStream, StreamVersion: 71_300,
		Count: &wire.Count{Value: 57123.456789, M: 71_300, Passes: 3, Queries: 140_001, SpaceWords: 260_017, Trials: 20000}}
	const iters = 2000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		var q2 wire.Query
		var r2 wire.QueryResult
		qb, _ := json.Marshal(q)
		_ = json.Unmarshal(qb, &q2)
		rb, _ := json.Marshal(r)
		_ = json.Unmarshal(rb, &r2)
	}
	return us(time.Since(t0)) / iters
}

func keysOf(n int64, ups []stream.Update) []uint64 {
	keys := make([]uint64, len(ups))
	for i, u := range ups {
		c := u.Edge.Canon()
		keys[i] = uint64(c.U)*uint64(n) + uint64(c.V)
	}
	return keys
}

func collectKeys(st stream.Stream) []uint64 {
	var keys []uint64
	_ = st.ForEachBatch(func(batch []stream.Update) error {
		keys = append(keys, keysOf(st.N(), batch)...)
		return nil
	})
	return keys
}

// sketchKernels times the three sketch leaves at the workload's own n and
// keys: one ℓ0-sampler UpdateTerm (the turnstile runner's inner call, at the
// runner's sampler geometry), one ℓ0 Sample, and one reservoir offer (the
// insertion runner's inner call: one bank slot taking one stream batch,
// which skip-sampling makes O(accepts), not O(batch)).
func sketchKernels(n int64, keys []uint64) (l0Update, l0Sample, offer float64) {
	if len(keys) > 1<<16 {
		keys = keys[:1<<16]
	}
	// transform.defaultL0Config, which is unexported.
	cfg := sketch.L0Config{Levels: int(2*math.Ceil(math.Log2(float64(n+2)))) + 8, Buckets: 8, Reps: 2}
	base := sketch.RandomFieldBase(0xbe7c4)
	terms := make([]uint64, len(keys))
	for i, k := range keys {
		terms[i] = sketch.FingerprintTerm(base, k, 1)
	}
	const reps = 5
	var upd, smp, off []float64
	for r := 0; r < reps; r++ {
		s := sketch.NewL0SamplerWithBase(uint64(r)+1, base, cfg)
		rounds := max(1, 200_000/len(keys))
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			for i, key := range keys {
				s.UpdateTerm(key, 1, terms[i])
			}
		}
		upd = append(upd, float64(time.Since(t0))/float64(rounds*len(keys)))

		const samples = 2000
		t0 = time.Now()
		found := 0
		for k := 0; k < samples; k++ {
			if _, ok := s.Sample(); ok {
				found++
			}
		}
		smp = append(smp, float64(time.Since(t0))/samples)
		_ = found

		var bank sketch.ReservoirBank
		const slots = 1024
		bank.Reset(slots)
		for i := 0; i < slots; i++ {
			bank.Seed(i, uint64(r*slots+i)+1)
		}
		t0 = time.Now()
		for lo := 0; lo < len(keys); lo += stream.DefaultBatchSize {
			batch := keys[lo:min(lo+stream.DefaultBatchSize, len(keys))]
			for i := 0; i < slots; i++ {
				bank.OfferKeys(i, batch)
			}
		}
		batches := (len(keys) + stream.DefaultBatchSize - 1) / stream.DefaultBatchSize
		off = append(off, float64(time.Since(t0))/float64(slots*batches))
	}
	return median(upd), median(smp), median(off)
}

// shard2Ratio is the wall time of one round of queries qs answered by the
// workload's runner with two pass workers on two Ps, divided by the
// sequential round's. It is informational: the second core of a shared box
// is not ours, so the value is only as steady as the neighbours are quiet.
func shard2Ratio(st stream.Stream, qs []oracle.Query) float64 {
	round := func(p int) float64 {
		prev := runtime.GOMAXPROCS(p)
		defer runtime.GOMAXPROCS(prev)
		rng := rand.New(rand.NewSource(1))
		var r oracle.Runner
		if st.InsertOnly() {
			ir, err := transform.NewInsertionRunner(st, rng)
			if err != nil {
				return 0
			}
			ir.SetParallelism(p)
			r = ir
		} else {
			tr := transform.NewTurnstileRunner(st, rng)
			tr.SetParallelism(p)
			r = tr
		}
		t0 := time.Now()
		if _, err := r.Round(qs); err != nil {
			return 0
		}
		return float64(time.Since(t0))
	}
	var seq, par []float64
	for k := 0; k < 3; k++ {
		seq = append(seq, round(1))
		par = append(par, round(2))
	}
	if s := median(seq); s > 0 {
		return median(par) / s
	}
	return 0
}
