package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"streamcount"
	"streamcount/client"
	"streamcount/internal/ers"
	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/server"
	"streamcount/internal/stream"
)

// Workload names, in the order they run.
var workloadNames = []string{"insert-count", "turnstile-count", "clique-ers", "service-mix"}

// sizing freezes one workload's inputs and operation counts. The full
// sizes are part of the benchmark's definition (README "Workloads"); the
// tiny sizes exist only so the smoke test finishes in seconds.
type sizing struct {
	ops    int // timed operations at -seconds == run_seconds
	warmup int // untimed operations that end the set-up

	n, m   int64 // graph vertices and edges (BA: m is the attachment count k)
	trials int   // FGP trials of the timed query

	decoys float64 // turnstile: decoy edges inserted then deleted, as a share of m
	plant  int64   // clique-ers: planted triangles
	eps    float64 // clique-ers: ε

	prefill     int // service-mix: updates appended before the first cycle
	prefillStep int // service-mix: updates per prefill append
	delta       int // service-mix: updates per timed append
	watchTrials int // service-mix: trials of the standing watch
	sampled     int // service-mix: cold results re-run standalone at the end
}

func sizingFor(name string, tiny bool) (sizing, error) {
	full := map[string]sizing{
		"insert-count":    {ops: 150, warmup: 5, n: 2000, m: 100_000, trials: 20_000},
		"turnstile-count": {ops: 200, warmup: 14, n: 64, m: 1300, trials: 200, decoys: 0.3},
		"clique-ers":      {ops: 105, warmup: 7, n: 800, m: 3, plant: 80, eps: 0.4},
		"service-mix": {ops: 155, warmup: 5, n: 2000, m: 100_000, trials: 20_000,
			prefill: 70_000, prefillStep: 5000, delta: 100, watchTrials: 2000, sampled: 10},
	}
	small := map[string]sizing{
		"insert-count":    {ops: 150, warmup: 1, n: 300, m: 6000, trials: 2000},
		"turnstile-count": {ops: 200, warmup: 1, n: 30, m: 260, trials: 400, decoys: 0.3},
		"clique-ers":      {ops: 105, warmup: 1, n: 300, m: 3, plant: 30, eps: 0.4},
		"service-mix": {ops: 155, warmup: 1, n: 300, m: 6000, trials: 2000,
			prefill: 4000, prefillStep: 1000, delta: 50, watchTrials: 500, sampled: 2},
	}
	tbl := full
	if tiny {
		tbl = small
	}
	s, ok := tbl[name]
	if !ok {
		return sizing{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return s, nil
}

// opOutcome is what one timed operation reports to the harness.
type opOutcome struct {
	latency time.Duration            // the cold query
	res     *streamcount.CountResult // its result; nil when the op errored
	exact   float64                  // ground truth at the version the query ran at
	passes  float64                  // stream passes charged to the op's queries
	queries float64                  // queries the op answered (cold + cached)
	version int64                    // service-mix: the stream version the query pinned
	fail    string                   // why the op counts as failed; "" when it is good

	// service-mix legs.
	appendLat, watchLat, cachedLat time.Duration
}

// workload is one benchmark workload. setup covers everything before the
// first timed op, warm-up ops included; op(i) is the i-th operation and
// always uses query seed i; verify runs the end-of-run checks and returns
// one message per failed check plus the number of checks made.
type workload interface {
	setup() error
	op(i int, tr *tracer) opOutcome
	verify(outs []opOutcome) (checks int, failures []string)
	teardown()
}

func newWorkload(name string, seed int64, sz sizing, tmp string) (workload, error) {
	base := libBase{seed: seed, sz: sz, tmp: tmp}
	switch name {
	case "insert-count":
		return &insertCount{libBase: base}, nil
	case "turnstile-count":
		return &turnstileCount{libBase: base}, nil
	case "clique-ers":
		return &cliqueERS{libBase: base}, nil
	case "service-mix":
		return &serviceMix{seed: seed, sz: sz, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- library workloads ----------------------------------------------------

// libBase is the part the three library workloads share: a stream, the
// ground truth, a query constructor, and the op that runs it through the
// facade.
type libBase struct {
	seed int64
	sz   sizing
	tmp  string

	g     *graph.Graph
	st    stream.Stream
	exact float64
	query func(i int) streamcount.TypedQuery[*streamcount.CountResult]
	// maxPasses is the paper's pass bound for the query: exactly 3 for FGP
	// (exactPasses), at most 5r for ERS.
	maxPasses   int64
	exactPasses bool
	// ersParams is set for the ERS workload; nil means the query is FGP.
	// The stack-depth traced run needs the algorithm's own parameters.
	ersParams *ers.Params
	dir       string
}

var triangle = mustPattern("triangle")

// triangleQuery is the FGP query of three of the four workloads; rule 2 pins
// it to one pass-engine worker.
func triangleQuery(trials int, seed int64) streamcount.TypedQuery[*streamcount.CountResult] {
	return streamcount.CountQuery(triangle, streamcount.WithTrials(trials),
		streamcount.WithSeed(seed), streamcount.WithParallelism(1))
}

func mustPattern(name string) *streamcount.Pattern {
	p, err := streamcount.PatternByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// run executes query i over st through the public facade and checks what
// every single result must satisfy.
func (b *libBase) run(i int, st stream.Stream) opOutcome {
	out := opOutcome{exact: b.exact, queries: 1}
	t0 := time.Now()
	res, err := streamcount.Run(context.Background(), st, b.query(i))
	out.latency = time.Since(t0)
	if err != nil {
		out.fail = fmt.Sprintf("query %d: %v", i, err)
		return out
	}
	out.res = res
	out.passes = float64(res.Passes)
	out.fail = b.checkResult(i, res)
	return out
}

func (b *libBase) checkResult(i int, res *streamcount.CountResult) string {
	switch {
	case math.IsNaN(res.Value) || math.IsInf(res.Value, 0) || res.Value < 0:
		return fmt.Sprintf("query %d: estimate %v is not a count", i, res.Value)
	case b.exactPasses && res.Passes != b.maxPasses:
		return fmt.Sprintf("query %d: %d passes, want exactly %d", i, res.Passes, b.maxPasses)
	case res.Passes < 1 || res.Passes > b.maxPasses:
		return fmt.Sprintf("query %d: %d passes, want 1..%d", i, res.Passes, b.maxPasses)
	case res.SpaceWords <= 0:
		return fmt.Sprintf("query %d: space_words %d", i, res.SpaceWords)
	}
	return ""
}

func (b *libBase) op(i int, tr *tracer) opOutcome {
	if tr == nil {
		return b.run(i, b.st)
	}
	tr.nextOp()
	ts := &tracedStream{Stream: b.st, tr: tr}
	id := tr.begin(spanFacade)
	out := b.run(i, ts)
	tr.end(id)
	if out.fail == "" && ts.passes != out.res.Passes {
		out.fail = fmt.Sprintf("query %d: stream decorator saw %d passes, result reports %d", i, ts.passes, out.res.Passes)
	}
	return out
}

func (b *libBase) warm() error {
	for i := 0; i < b.sz.warmup; i++ {
		if out := b.run(-(i + 1), b.st); out.fail != "" {
			return fmt.Errorf("warm-up: %s", out.fail)
		}
	}
	return nil
}

// verify re-runs the first timed query: the determinism contract says the
// result is bit-identical.
func (b *libBase) verify(outs []opOutcome) (int, []string) {
	if len(outs) == 0 || outs[0].res == nil {
		return 1, []string{"no first result to re-run"}
	}
	again := b.run(0, b.st)
	if again.res == nil || *again.res != *outs[0].res {
		return 1, []string{fmt.Sprintf("re-run of query 0 differs: first %+v, again %+v", outs[0].res, again.res)}
	}
	return 1, nil
}

func (b *libBase) teardown() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// insertCount: the insertion-only Theorem 17 path over a file-backed stream.
type insertCount struct{ libBase }

func (w *insertCount) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.g = gen.ErdosRenyiGNM(rng, w.sz.n, w.sz.m)
	w.exact = float64(exact.Triangles(w.g))
	sl := stream.Shuffled(stream.FromGraph(w.g), rng)
	dir, err := os.MkdirTemp(w.tmp, "insert-count-")
	if err != nil {
		return err
	}
	w.dir = dir
	path := filepath.Join(dir, "stream.txt")
	if err := writeStreamFile(path, w.sz.n, sl.Updates()); err != nil {
		return err
	}
	st, err := streamcount.OpenStreamFile(path)
	if err != nil {
		return err
	}
	w.st = st
	w.maxPasses, w.exactPasses = 3, true
	w.query = func(i int) streamcount.TypedQuery[*streamcount.CountResult] {
		return triangleQuery(w.sz.trials, int64(i))
	}
	return w.warm()
}

// writeStreamFile writes the "n" header + "+ u v" lines OpenStreamFile reads.
func writeStreamFile(path string, n int64, ups []stream.Update) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "%d\n", n)
	for _, u := range ups {
		fmt.Fprintf(bw, "%s %d %d\n", u.Op, u.Edge.U, u.Edge.V)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// turnstileCount: the Theorem 1 path, ℓ0-samplers over an in-memory
// turnstile stream.
type turnstileCount struct{ libBase }

func (w *turnstileCount) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.g = gen.ErdosRenyiGNM(rng, w.sz.n, w.sz.m)
	w.exact = float64(exact.Triangles(w.g))
	w.st = streamcount.TurnstileFromGraph(w.g, w.sz.decoys, rng)
	w.maxPasses, w.exactPasses = 3, true
	w.query = func(i int) streamcount.TypedQuery[*streamcount.CountResult] {
		return triangleQuery(w.sz.trials, int64(i))
	}
	return w.warm()
}

// cliqueERS: the Theorem 2 chain for K_3 on a low-degeneracy graph.
type cliqueERS struct {
	libBase
	lambda int64
}

func (w *cliqueERS) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.g = gen.PlantCliques(rng, gen.BarabasiAlbert(rng, w.sz.n, w.sz.m), 3, w.sz.plant)
	w.exact = float64(exact.Cliques(w.g, 3))
	w.lambda, _ = graph.Degeneracy(w.g)
	w.st = stream.Shuffled(stream.FromGraph(w.g), rng)
	w.maxPasses = 5 * 3
	w.ersParams = &ers.Params{R: 3, Lambda: w.lambda, Eps: w.sz.eps, L: w.exact}
	w.query = func(i int) streamcount.TypedQuery[*streamcount.CountResult] {
		return streamcount.CliqueQuery(3, streamcount.WithEpsilon(w.sz.eps), streamcount.WithLambda(w.lambda),
			streamcount.WithLowerBound(w.exact), streamcount.WithSeed(int64(i)), streamcount.WithParallelism(1))
	}
	return w.warm()
}

// ---- service-mix ------------------------------------------------------------

const (
	webStream = "web"
	// watchSeed seeds the standing watch; timed queries use seeds 0..ops-1.
	watchSeed = 1_000_003
)

// serviceMix drives an in-process streamcountd through the client SDK:
// append, watch event, cold query, cached query.
type serviceMix struct {
	seed int64
	sz   sizing
	tmp  string

	dir  string
	ups  []stream.Update
	srv  *server.Server
	ts   *httptest.Server
	rt   *countingTransport
	cl   *client.Client
	sub  *streamcount.Subscription[*streamcount.CountResult]
	next int // index into ups of the next update to append

	truth    triangleCounter
	truthAt  map[int64]float64 // version -> exact triangles
	versions []int64           // watch transcript
	calls    int64             // client calls that should each be one HTTP request
}

// countingTransport counts HTTP requests, so retries show as requests
// beyond one per client call.
type countingTransport struct {
	base     *http.Transport
	requests atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	return t.base.RoundTrip(r)
}

func (w *serviceMix) coldQuery(i int) streamcount.TypedQuery[*streamcount.CountResult] {
	return triangleQuery(w.sz.trials, int64(i))
}

func (w *serviceMix) watchQuery() streamcount.TypedQuery[*streamcount.CountResult] {
	return triangleQuery(w.sz.watchTrials, watchSeed)
}

func (w *serviceMix) setup() error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(w.seed))
	g := gen.ErdosRenyiGNM(rng, w.sz.n, w.sz.m)
	w.ups = stream.Shuffled(stream.FromGraph(g), rng).Updates()
	w.truth = newTriangleCounter(w.sz.n)
	w.truthAt = map[int64]float64{}

	dir, err := os.MkdirTemp(w.tmp, "service-mix-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv, err = server.New(server.Options{Window: time.Millisecond, Parallelism: 1, ResultCacheMB: 64, SegmentDir: dir})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv)
	if err := w.srv.WaitReady(ctx); err != nil {
		return err
	}
	w.rt = &countingTransport{base: &http.Transport{}}
	w.cl, err = client.New(w.ts.URL, client.WithHTTPClient(&http.Client{Transport: w.rt}))
	if err != nil {
		return err
	}
	if err := w.cl.CreateStream(ctx, webStream, w.sz.n); err != nil {
		return err
	}
	w.calls++
	var version int64
	for w.next < w.sz.prefill {
		hi := min(w.next+w.sz.prefillStep, w.sz.prefill)
		if version, err = w.append(ctx, w.ups[w.next:hi]); err != nil {
			return err
		}
	}
	w.sub, err = streamcount.Watch(ctx, w.cl, webStream, w.watchQuery(),
		streamcount.WatchEveryVersion(), streamcount.WatchAfter(version))
	if err != nil {
		return err
	}
	w.calls++
	for i := 0; i < w.sz.warmup; i++ {
		if out := w.cycle(-(i + 1), nil); out.fail != "" {
			return fmt.Errorf("warm-up: %s", out.fail)
		}
	}
	return nil
}

// append sends one batch through the client and advances the harness's own
// ground truth by the same updates.
func (w *serviceMix) append(ctx context.Context, ups []stream.Update) (int64, error) {
	v, err := w.cl.Append(ctx, webStream, ups)
	w.calls++
	if err != nil {
		return 0, err
	}
	w.next += len(ups)
	if v != int64(w.next) {
		return 0, fmt.Errorf("append acknowledged version %d, harness sent %d updates", v, w.next)
	}
	for _, u := range ups {
		w.truth.add(u.Edge.U, u.Edge.V)
	}
	w.truthAt[v] = float64(w.truth.triangles)
	return v, nil
}

// awaitEvent reads the standing watch until it reports version v.
func (w *serviceMix) awaitEvent(v int64) error {
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-w.sub.Events():
			if !ok {
				return fmt.Errorf("watch ended: %v", w.sub.Err())
			}
			if ev.Err != nil {
				return fmt.Errorf("watch failed: %w", ev.Err)
			}
			w.versions = append(w.versions, ev.StreamVersion)
			if ev.StreamVersion >= v {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("no watch event for version %d within 30s", v)
		}
	}
}

func (w *serviceMix) op(i int, tr *tracer) opOutcome { return w.cycle(i, tr) }

// cycle is one operation: append Δ, wait for the watch event, run a cold
// query, repeat it. Spans, when traced, are the four legs under one root.
func (w *serviceMix) cycle(i int, tr *tracer) opOutcome {
	ctx := context.Background()
	out := opOutcome{queries: 2}
	if w.next+w.sz.delta > len(w.ups) {
		out.fail = fmt.Sprintf("cycle %d: stream exhausted", i)
		return out
	}
	tr.nextOp()
	root := tr.begin(spanSrvCycle)
	defer tr.end(root)
	eng := w.srv.Engine()
	passes0 := eng.PassesOn(webStream)

	t0 := time.Now()
	id := tr.begin(spanSrvAppend)
	v, err := w.append(ctx, w.ups[w.next:w.next+w.sz.delta])
	tr.end(id)
	out.appendLat = time.Since(t0)
	if err != nil {
		out.fail = fmt.Sprintf("cycle %d: append: %v", i, err)
		return out
	}
	id = tr.begin(spanSrvWatch)
	err = w.awaitEvent(v)
	tr.end(id)
	out.watchLat = time.Since(t0)
	if err != nil {
		out.fail = fmt.Sprintf("cycle %d: %v", i, err)
		return out
	}
	out.exact = w.truthAt[v]

	q := w.coldQuery(i)
	t1 := time.Now()
	id = tr.begin(spanSrvCold)
	cold, err := w.cl.SubmitOn(ctx, webStream, q)
	tr.end(id)
	out.latency = time.Since(t1)
	w.calls++
	if err != nil || cold.Count == nil {
		out.fail = fmt.Sprintf("cycle %d: cold query: %v", i, err)
		return out
	}
	t2 := time.Now()
	id = tr.begin(spanSrvCached)
	hit, err := w.cl.SubmitOn(ctx, webStream, q)
	tr.end(id)
	out.cachedLat = time.Since(t2)
	w.calls++
	if err != nil || hit.Count == nil {
		out.fail = fmt.Sprintf("cycle %d: cached query: %v", i, err)
		return out
	}
	out.res = cold.Count
	out.passes = float64(eng.PassesOn(webStream) - passes0)
	out.version = cold.StreamVersion
	switch {
	case cold.StreamVersion != v:
		out.fail = fmt.Sprintf("cycle %d: cold query pinned version %d, want %d", i, cold.StreamVersion, v)
	case cold.Count.Passes != 3:
		out.fail = fmt.Sprintf("cycle %d: cold query reports %d passes, want 3", i, cold.Count.Passes)
	case hit.StreamVersion != cold.StreamVersion || *hit.Count != *cold.Count:
		out.fail = fmt.Sprintf("cycle %d: cached reply differs from cold: %+v vs %+v", i, hit.Count, cold.Count)
	}
	return out
}

// verify: sampled cold results (the first among them) against standalone
// runs at their pinned prefixes, the watch transcript, the request count,
// and the harness's incremental ground truth against internal/exact.
func (w *serviceMix) verify(outs []opOutcome) (int, []string) {
	var fails []string
	checks := 0
	app, ok := w.appendable()
	if !ok {
		return 1, []string{"server's stream is not an appendable stream"}
	}
	// Sampled cold results, op 0 always among them (the bit-identity re-run).
	step := max(1, len(outs)/max(1, w.sz.sampled))
	for i := 0; i < len(outs); i += step {
		c := outs[i]
		if c.res == nil {
			continue
		}
		checks++
		view, err := app.At(c.version)
		if err != nil {
			fails = append(fails, fmt.Sprintf("cycle %d: view at %d: %v", i, c.version, err))
			continue
		}
		res, err := streamcount.Run(context.Background(), view, w.coldQuery(i))
		if err != nil || *res != *c.res {
			fails = append(fails, fmt.Sprintf("cycle %d: standalone run at version %d gives %+v (%v), service gave %+v", i, c.version, res, err, c.res))
		}
	}
	// Transcript: one event per append since the watch opened, in order.
	checks++
	first := int64(w.sz.prefill + w.sz.delta)
	for k, v := range w.versions {
		if want := first + int64(k*w.sz.delta); v != want {
			fails = append(fails, fmt.Sprintf("watch transcript: event %d is version %d, want %d", k, v, want))
			break
		}
	}
	if want := (w.next - w.sz.prefill) / w.sz.delta; len(w.versions) != want {
		fails = append(fails, fmt.Sprintf("watch transcript: %d events for %d appends", len(w.versions), want))
	}
	// One HTTP request per client call: the self-healing client hid nothing.
	checks++
	if r := w.retries(); r != 0 {
		fails = append(fails, fmt.Sprintf("client made %d HTTP requests beyond one per call", r))
	}
	// Ground truth at the final version.
	checks++
	g := graph.New(w.sz.n)
	for _, u := range w.ups[:w.next] {
		g.AddEdge(u.Edge.U, u.Edge.V)
	}
	if ex := exact.Triangles(g); ex != w.truth.triangles {
		fails = append(fails, fmt.Sprintf("ground truth: harness counts %d triangles at version %d, exact.Triangles %d", w.truth.triangles, w.next, ex))
	}
	return checks, fails
}

func (w *serviceMix) appendable() (*streamcount.AppendableStream, bool) {
	st, ok := w.srv.Engine().Lookup(webStream)
	if !ok {
		return nil, false
	}
	app, ok := st.(*streamcount.AppendableStream)
	return app, ok
}

// retries is the number of HTTP requests beyond one per client call.
func (w *serviceMix) retries() int64 { return w.rt.requests.Load() - w.calls }

func (w *serviceMix) teardown() {
	if w.sub != nil {
		w.sub.Close()
		w.sub = nil
	}
	if w.srv != nil {
		w.srv.Drain()
	}
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Close(ctx)
		cancel()
		w.srv = nil
	}
	if w.rt != nil {
		w.rt.base.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// triangleCounter maintains the exact triangle count of a growing simple
// graph: adding edge (u,v) closes one triangle per common neighbour.
type triangleCounter struct {
	words     int
	adj       []uint64 // n rows of `words` words
	triangles int64
}

func newTriangleCounter(n int64) triangleCounter {
	words := int(n+63) / 64
	return triangleCounter{words: words, adj: make([]uint64, int(n)*words)}
}

func (t *triangleCounter) add(u, v int64) {
	ru := t.adj[int(u)*t.words : int(u+1)*t.words]
	rv := t.adj[int(v)*t.words : int(v+1)*t.words]
	for i := range ru {
		t.triangles += int64(bits.OnesCount64(ru[i] & rv[i]))
	}
	ru[v/64] |= 1 << (v % 64)
	rv[u/64] |= 1 << (u % 64)
}
