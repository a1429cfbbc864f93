package streamcount

import (
	"context"
	"encoding/json"
	"fmt"

	"streamcount/internal/core"
	"streamcount/internal/rcache"
	"streamcount/internal/wire"
)

// CountResult is the outcome of a counting query (CountQuery, CliqueQuery,
// AutoQuery): the estimate plus its pass/query/space accounting.
type CountResult = core.CountResult

// SampleResult is the outcome of a SampleQuery.
type SampleResult struct {
	// Copy is the uniformly sampled copy of H; valid when Found is true.
	Copy SampledCopy
	// Found reports whether any trial witnessed a copy.
	Found bool
	// Passes is the number of stream passes the query consumed.
	Passes int64
}

// DistinguishResult is the outcome of a DistinguishQuery.
type DistinguishResult struct {
	// Above reports the decision: #H >= (1+ε)·l rather than <= l.
	Above bool
	// Estimate is the underlying eps/2-accurate estimate used as evidence.
	Estimate *CountResult
}

// A Query is a typed, immutable description of one unit of work: which
// algorithm to run, on what pattern, under which knobs. Build queries with
// the constructors (CountQuery, SampleQuery, CliqueQuery, AutoQuery,
// DistinguishQuery) and functional options (WithEpsilon, WithTrials, ...),
// then run them with Run (one-shot over a stream) or submit them to an
// Engine. Queries are plain values — reuse and resubmit them freely.
//
// The interface is sealed: the only implementations are the ones this
// package constructs.
type Query interface {
	// Kind names the query's algorithm ("count", "sample", "cliques",
	// "auto", "distinguish") for error tables and logs.
	Kind() string
	// job lowers the query to a core job. defaultEdgeBound is the stream
	// length, used when the query derives its trial budget and no explicit
	// WithEdgeBound was given.
	job(defaultEdgeBound int64) (core.Job, error)
	// outcome converts a served job handle to the untyped Outcome.
	outcome(h *core.JobHandle) Outcome
}

// A TypedQuery is a Query whose result type is known statically: CountQuery
// returns a TypedQuery[*CountResult], SampleQuery a TypedQuery[*SampleResult],
// and so on. Run, Do and Watch return the matching result without any
// assertion.
type TypedQuery[R any] interface {
	Query
	// result converts a served job handle to the query's typed result.
	result(h *core.JobHandle) R
	// fromOutcome recovers the typed result from an untyped Outcome — the
	// common currency of the Querier interface, local or remote.
	fromOutcome(o Outcome) (R, error)
}

// Outcome is the untyped result of Engine.Submit: exactly one of the typed
// result fields is set, per Kind. Heterogeneous callers (result tables,
// fan-out over mixed query kinds) switch on Kind; homogeneous callers should
// prefer the typed Do / Run and never see an Outcome.
type Outcome struct {
	// Kind is the served query's Kind().
	Kind string
	// StreamVersion is the stream version the query's admission generation
	// pinned: the query ran over exactly that prefix of the stream (the full
	// length for static streams). Resubmitting the same query against the
	// same prefix returns a bit-identical result.
	StreamVersion int64
	// Count is set for count, cliques and auto queries.
	Count *CountResult
	// Sample is set for sample queries.
	Sample *SampleResult
	// Decision is set for distinguish queries.
	Decision *DistinguishResult
}

// queryOpts collects every knob the functional options can set. The zero
// value means "unset"; resolve applies the documented defaults.
type queryOpts struct {
	trials      int
	maxTrials   int
	epsilon     float64
	lowerBound  float64
	edgeBound   int64
	seed        int64
	parallelism int
	lambda      int64
}

// QueryOption configures a query constructor. Options are evaluated in
// order; later options override earlier ones.
type QueryOption func(*queryOpts)

// WithEpsilon sets the target relative error ε (default 0.1 for every query
// kind). It matters when the trial budget is derived, i.e. when WithTrials is
// not given.
func WithEpsilon(eps float64) QueryOption { return func(o *queryOpts) { o.epsilon = eps } }

// WithTrials fixes the number of parallel sampler instances directly,
// overriding the ε/lower-bound derivation.
func WithTrials(n int) QueryOption { return func(o *queryOpts) { o.trials = n } }

// WithMaxTrials caps derived trial counts (default 1_000_000).
func WithMaxTrials(n int) QueryOption { return func(o *queryOpts) { o.maxTrials = n } }

// WithLowerBound sets the lower bound L on #H (the paper's
// parameterization), used to derive the trial budget when WithTrials is not
// given.
func WithLowerBound(l float64) QueryOption { return func(o *queryOpts) { o.lowerBound = l } }

// WithEdgeBound sets the upper bound on the stream's edge count used to
// derive the trial budget. Default: the stream's length at submission time,
// which is always a valid bound.
func WithEdgeBound(m int64) QueryOption { return func(o *queryOpts) { o.edgeBound = m } }

// WithSeed seeds the query's randomness. Queries with the same seed and
// knobs return bit-identical results on every run, at any parallelism,
// standalone or inside any engine generation (DESIGN.md §2, §3).
func WithSeed(seed int64) QueryOption { return func(o *queryOpts) { o.seed = seed } }

// WithParallelism bounds the pass engine's worker goroutines. 0 selects
// GOMAXPROCS; 1 forces the sequential path. The result does not depend on
// it.
func WithParallelism(p int) QueryOption { return func(o *queryOpts) { o.parallelism = p } }

// WithLambda sets the degeneracy bound λ of the input graph for
// CliqueQuery. Required there; ignored by the other query kinds.
func WithLambda(lambda int64) QueryOption { return func(o *queryOpts) { o.lambda = lambda } }

// resolve applies defaults shared by every query kind.
func resolve(opts []QueryOption) queryOpts {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.epsilon == 0 {
		o.epsilon = 0.1
	}
	return o
}

// config lowers the shared knobs to a core.Config for pattern p.
// defaultEdgeBound is normally core.EdgeBoundStreamLen — "the length of the
// stream the job ends up replaying", resolved at job start so that a query
// over a live appendable stream derives its trial budget from its
// generation's pinned version, not from the length at submission time.
func (o queryOpts) config(p *Pattern, defaultEdgeBound int64) core.Config {
	eb := o.edgeBound
	if eb == 0 && o.trials == 0 {
		eb = defaultEdgeBound
	}
	return core.Config{
		Pattern:     p,
		Trials:      o.trials,
		Epsilon:     o.epsilon,
		LowerBound:  o.lowerBound,
		EdgeBound:   eb,
		MaxTrials:   o.maxTrials,
		Seed:        o.seed,
		Parallelism: o.parallelism,
	}
}

// countResultOf reads the counting outcome off a served handle.
func countResultOf(h *core.JobHandle) *CountResult { return h.Result().Est }

// countFromOutcome recovers the counting result from an Outcome (count,
// cliques and auto queries share it).
func countFromOutcome(o Outcome) (*CountResult, error) {
	if o.Count == nil {
		return nil, fmt.Errorf("streamcount: outcome of kind %q carries no count result: %w", o.Kind, ErrBadConfig)
	}
	return o.Count, nil
}

// --- count ---

type countQuery struct {
	p *Pattern
	o queryOpts
}

// CountQuery builds the (1±ε)-approximate counting query for pattern p —
// the paper's 3-pass algorithm (Theorem 17 insertion-only, Theorem 1
// turnstile): at most 3 passes, 3 whenever a trial survives round 2. Give
// either WithTrials, or WithEpsilon+WithLowerBound (the edge bound defaults
// to the stream length).
func CountQuery(p *Pattern, opts ...QueryOption) TypedQuery[*CountResult] {
	return countQuery{p: p, o: resolve(opts)}
}

func (q countQuery) Kind() string { return "count" }
func (q countQuery) job(eb int64) (core.Job, error) {
	if q.p == nil {
		return core.Job{}, fmt.Errorf("streamcount: CountQuery: nil pattern: %w", ErrBadPattern)
	}
	return core.Job{Kind: core.JobEstimate, Config: q.o.config(q.p, eb)}, nil
}
func (q countQuery) result(h *core.JobHandle) *CountResult { return countResultOf(h) }
func (q countQuery) outcome(h *core.JobHandle) Outcome {
	return Outcome{Kind: q.Kind(), Count: countResultOf(h)}
}
func (q countQuery) fromOutcome(o Outcome) (*CountResult, error) { return countFromOutcome(o) }
func (q countQuery) MarshalJSON() ([]byte, error)                { return marshalWireQuery(q.Kind(), q.p, 0, 0, q.o) }

// --- sample ---

type sampleQuery struct {
	p *Pattern
	o queryOpts
}

// SampleQuery builds the uniform-sampling query for pattern p: one
// uniformly random copy of H in at most 3 passes (Lemma 16/18). Found is
// false on a miss; for success probability ~1 set WithTrials ≈
// 10·(2m)^ρ(H)/#H.
func SampleQuery(p *Pattern, opts ...QueryOption) TypedQuery[*SampleResult] {
	return sampleQuery{p: p, o: resolve(opts)}
}

func (q sampleQuery) Kind() string { return "sample" }
func (q sampleQuery) job(eb int64) (core.Job, error) {
	if q.p == nil {
		return core.Job{}, fmt.Errorf("streamcount: SampleQuery: nil pattern: %w", ErrBadPattern)
	}
	return core.Job{Kind: core.JobSample, Config: q.o.config(q.p, eb)}, nil
}
func (q sampleQuery) result(h *core.JobHandle) *SampleResult {
	r := h.Result()
	return &SampleResult{Copy: r.Copy, Found: r.Found, Passes: h.Passes()}
}
func (q sampleQuery) outcome(h *core.JobHandle) Outcome {
	return Outcome{Kind: q.Kind(), Sample: q.result(h)}
}
func (q sampleQuery) fromOutcome(o Outcome) (*SampleResult, error) {
	if o.Sample == nil {
		return nil, fmt.Errorf("streamcount: outcome of kind %q carries no sample result: %w", o.Kind, ErrBadConfig)
	}
	return o.Sample, nil
}
func (q sampleQuery) MarshalJSON() ([]byte, error) { return marshalWireQuery(q.Kind(), q.p, 0, 0, q.o) }

// --- cliques ---

type cliqueQuery struct {
	r int
	o queryOpts
}

// CliqueQuery builds the K_r counting query for low-degeneracy
// insertion-only streams — the paper's 5r-pass ERS algorithm (Theorem 2).
// WithLambda (the degeneracy bound) and WithLowerBound are required;
// WithEpsilon tunes accuracy.
func CliqueQuery(r int, opts ...QueryOption) TypedQuery[*CountResult] {
	return cliqueQuery{r: r, o: resolve(opts)}
}

func (q cliqueQuery) Kind() string { return "cliques" }
func (q cliqueQuery) job(int64) (core.Job, error) {
	if q.r < 3 {
		return core.Job{}, fmt.Errorf("streamcount: CliqueQuery: clique size %d < 3: %w", q.r, ErrBadConfig)
	}
	if q.o.lambda <= 0 {
		return core.Job{}, fmt.Errorf("streamcount: CliqueQuery: WithLambda (degeneracy bound) is required: %w", ErrBadConfig)
	}
	if q.o.lowerBound <= 0 {
		return core.Job{}, fmt.Errorf("streamcount: CliqueQuery: WithLowerBound is required: %w", ErrBadConfig)
	}
	return core.Job{Kind: core.JobCliques, Clique: core.CliqueConfig{
		R:          q.r,
		Lambda:     q.o.lambda,
		Epsilon:    q.o.epsilon,
		LowerBound: q.o.lowerBound,
		Seed:       q.o.seed,
	}}, nil
}
func (q cliqueQuery) result(h *core.JobHandle) *CountResult { return countResultOf(h) }
func (q cliqueQuery) outcome(h *core.JobHandle) Outcome {
	return Outcome{Kind: q.Kind(), Count: countResultOf(h)}
}
func (q cliqueQuery) fromOutcome(o Outcome) (*CountResult, error) { return countFromOutcome(o) }
func (q cliqueQuery) MarshalJSON() ([]byte, error) {
	return marshalWireQuery(q.Kind(), nil, q.r, 0, q.o)
}

// --- auto ---

type autoQuery struct {
	p *Pattern
	o queryOpts
}

// AutoQuery builds the counting query for callers without a lower bound on
// #H: a geometric search over guesses (cf. Lemma 21) at up to 3 passes per
// guess, with cumulative pass/space accounting. ε defaults to 0.1 like every
// other query.
func AutoQuery(p *Pattern, opts ...QueryOption) TypedQuery[*CountResult] {
	return autoQuery{p: p, o: resolve(opts)}
}

func (q autoQuery) Kind() string { return "auto" }
func (q autoQuery) job(eb int64) (core.Job, error) {
	if q.p == nil {
		return core.Job{}, fmt.Errorf("streamcount: AutoQuery: nil pattern: %w", ErrBadPattern)
	}
	cfg := q.o.config(q.p, eb)
	// The geometric search starts from the AGM bound m^ρ, so it needs an
	// edge bound even when the trial budget is fixed via WithTrials (where
	// config skips the stream-length default).
	if cfg.EdgeBound == 0 {
		cfg.EdgeBound = eb
	}
	if cfg.EdgeBound <= 0 && cfg.EdgeBound != core.EdgeBoundStreamLen {
		return core.Job{}, fmt.Errorf("streamcount: AutoQuery: the geometric search needs an edge bound: %w", ErrBadConfig)
	}
	return core.Job{Kind: core.JobAuto, Config: cfg}, nil
}
func (q autoQuery) result(h *core.JobHandle) *CountResult { return countResultOf(h) }
func (q autoQuery) outcome(h *core.JobHandle) Outcome {
	return Outcome{Kind: q.Kind(), Count: countResultOf(h)}
}
func (q autoQuery) fromOutcome(o Outcome) (*CountResult, error) { return countFromOutcome(o) }
func (q autoQuery) MarshalJSON() ([]byte, error)                { return marshalWireQuery(q.Kind(), q.p, 0, 0, q.o) }

// --- distinguish ---

type distinguishQuery struct {
	p *Pattern
	l float64
	o queryOpts
}

// DistinguishQuery builds the paper's decision query (§1.1): is #H at least
// (1+ε)·l, or at most l? The answer is decided at the midpoint of an
// ε/2-accurate estimate.
func DistinguishQuery(p *Pattern, l float64, opts ...QueryOption) TypedQuery[*DistinguishResult] {
	return distinguishQuery{p: p, l: l, o: resolve(opts)}
}

func (q distinguishQuery) Kind() string { return "distinguish" }
func (q distinguishQuery) job(eb int64) (core.Job, error) {
	if q.p == nil {
		return core.Job{}, fmt.Errorf("streamcount: DistinguishQuery: nil pattern: %w", ErrBadPattern)
	}
	if q.l <= 0 {
		return core.Job{}, fmt.Errorf("streamcount: DistinguishQuery: threshold %v must be positive: %w", q.l, ErrBadConfig)
	}
	return core.Job{Kind: core.JobDistinguish, Config: q.o.config(q.p, eb), Threshold: q.l}, nil
}
func (q distinguishQuery) result(h *core.JobHandle) *DistinguishResult {
	r := h.Result()
	return &DistinguishResult{Above: r.Above, Estimate: r.Est}
}
func (q distinguishQuery) outcome(h *core.JobHandle) Outcome {
	return Outcome{Kind: q.Kind(), Decision: q.result(h)}
}
func (q distinguishQuery) fromOutcome(o Outcome) (*DistinguishResult, error) {
	if o.Decision == nil {
		return nil, fmt.Errorf("streamcount: outcome of kind %q carries no decision: %w", o.Kind, ErrBadConfig)
	}
	return o.Decision, nil
}
func (q distinguishQuery) MarshalJSON() ([]byte, error) {
	return marshalWireQuery(q.Kind(), q.p, 0, q.l, q.o)
}

// marshalWireQuery lowers a query to its service wire form (the JSON body
// of POST /v1/queries, minus the stream name, which belongs to the request).
// Every query value is a json.Marshaler through it, which is how the client
// SDK sends the same immutable query values over the wire that the local
// Engine executes in-process. Only catalog patterns are encodable — the
// wire names patterns, it does not carry edge lists.
func marshalWireQuery(kind string, p *Pattern, r int, threshold float64, o queryOpts) ([]byte, error) {
	w, err := wireQueryForm(kind, p, r, threshold, o)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// wireQueryForm builds the canonical wire.Query a query lowers to — the
// shared shape behind both its JSON encoding (marshalWireQuery) and its
// result-cache fingerprint (fingerprintOf). One canonicalization means a
// query fingerprints identically whether it was submitted in-process or
// decoded off the wire.
func wireQueryForm(kind string, p *Pattern, r int, threshold float64, o queryOpts) (wire.Query, error) {
	w := wire.Query{
		Kind:        kind,
		R:           r,
		Threshold:   threshold,
		Epsilon:     o.epsilon,
		Trials:      o.trials,
		LowerBound:  o.lowerBound,
		MaxTrials:   o.maxTrials,
		Seed:        o.seed,
		Parallelism: o.parallelism,
		Lambda:      o.lambda,
	}
	if o.edgeBound != 0 && o.edgeBound != core.EdgeBoundStreamLen {
		w.EdgeBound = o.edgeBound
	}
	if p != nil {
		cat, err := PatternByName(p.Name())
		if err != nil || !samePattern(cat, p) {
			return wire.Query{}, fmt.Errorf("streamcount: pattern %q is not a catalog pattern and cannot be sent over the wire (the wire names patterns; use PatternByName): %w", p.Name(), ErrBadPattern)
		}
		w.Pattern = p.Name()
	}
	return w, nil
}

// fingerprintOf computes q's canonical result-cache fingerprint:
// rcache.Fingerprint over the query's wire form (which excludes seed,
// stream and parallelism — they are separate key components or
// contract-irrelevant). Queries with no canonical wire form — custom
// non-catalog patterns — return 0, the uncacheable sentinel: they still
// execute, they just never memoize.
func fingerprintOf(q Query) uint64 {
	var w wire.Query
	var err error
	switch t := q.(type) {
	case countQuery:
		w, err = wireQueryForm(t.Kind(), t.p, 0, 0, t.o)
	case sampleQuery:
		w, err = wireQueryForm(t.Kind(), t.p, 0, 0, t.o)
	case autoQuery:
		w, err = wireQueryForm(t.Kind(), t.p, 0, 0, t.o)
	case distinguishQuery:
		w, err = wireQueryForm(t.Kind(), t.p, 0, t.l, t.o)
	case cliqueQuery:
		w, err = wireQueryForm(t.Kind(), nil, t.r, 0, t.o)
	default:
		return 0
	}
	if err != nil {
		return 0
	}
	return rcache.Fingerprint(w)
}

// samePattern reports whether two patterns are structurally identical —
// the guard that keeps a custom NewPattern reusing a catalog name from
// silently encoding as the catalog's different graph.
func samePattern(a, b *Pattern) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// Run executes one query over st under ctx and returns its typed result:
//
//	est, err := streamcount.Run(ctx, st, streamcount.CountQuery(p,
//	    streamcount.WithTrials(100000), streamcount.WithSeed(1)))
//
// Cancellation is checked between the update batches of every pass; a
// canceled run's error wraps ErrCanceled (and the context's own error). For
// many queries over one stream, use an Engine — concurrent queries then
// share replays instead of each paying its own passes.
func Run[R any](ctx context.Context, st Stream, q TypedQuery[R]) (R, error) {
	var zero R
	j, err := q.job(core.EdgeBoundStreamLen)
	if err != nil {
		return zero, err
	}
	h, err := core.RunJob(ctx, st, j)
	if err != nil {
		return zero, err
	}
	return q.result(h), nil
}
