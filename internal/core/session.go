package core

import (
	"context"
	"fmt"
	"math/rand"

	"streamcount/internal/oracle"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// A Session binds a set of estimator jobs to one stream and serves them with
// shared replays: every job that is waiting on its next query round when a
// pass starts rides that same pass. The paper's generic transformation
// (Theorems 9/11) charges one pass per adaptivity round; the session charges
// one pass per adaptivity round *across all jobs*, so K concurrent jobs over
// one stream cost max-rounds passes instead of the sum.
//
// Usage: NewSession, any number of Submit calls, one Run call, then read
// each handle's result. Sessions are single-shot; jobs may not be submitted
// once Run has started.
//
// Scheduling is a round barrier: each job runs its unmodified round-adaptive
// algorithm against a proxy runner whose Round blocks until every live job
// has either requested its next round or finished; then one broadcast replay
// serves all pending rounds at once and the barrier reopens. Jobs that
// finish early simply stop participating, so the shared pass count equals
// the maximum round count over the jobs.
//
// Determinism: each job owns its runner, its RNG (seeded from its own
// config) and all of its per-round state, and the shared replay feeds every
// runner the same batches in the same order a private replay would. A job's
// result is therefore bit-identical to the same job run standalone, no
// matter which other jobs share the session.
type Session struct {
	st  stream.Stream
	cnt *stream.Counter
	bc  *stream.Broadcaster

	// ctx is the session-wide context, set once by RunContext before any job
	// goroutine starts. Cancellation is checked between batches of every
	// shared replay: a cancel mid-replay aborts the pass and fails all of the
	// pass's riders with ErrCanceled; jobs between rounds fail at their next
	// Round call. The stream itself is left replayable, so a new session (or
	// Engine generation) over the same stream stays serviceable.
	ctx context.Context

	jobs    []*JobHandle
	reqCh   chan *roundReq
	started bool
}

// JobKind selects which algorithm a Job runs.
type JobKind int

const (
	// JobEstimate runs the 3-pass FGP counter (Theorem 17 / Theorem 1).
	JobEstimate JobKind = iota
	// JobSample draws one uniform copy of H (Lemma 16/18).
	JobSample
	// JobCliques runs the 5r-pass ERS clique counter (Theorem 2).
	JobCliques
	// JobAuto runs the geometric search over lower bounds (cf. Lemma 21).
	JobAuto
	// JobDistinguish runs the decision variant (§1.1).
	JobDistinguish
)

func (k JobKind) String() string {
	switch k {
	case JobEstimate:
		return "estimate"
	case JobSample:
		return "sample"
	case JobCliques:
		return "cliques"
	case JobAuto:
		return "auto"
	case JobDistinguish:
		return "distinguish"
	default:
		return "unknown"
	}
}

// Job describes one unit of work submitted to a Session. Config configures
// the FGP-family kinds (Estimate, Sample, Auto, Distinguish); Clique
// configures JobCliques; Threshold is JobDistinguish's decision threshold l.
type Job struct {
	Kind      JobKind
	Config    Config
	Clique    CliqueConfig
	Threshold float64
	// Fingerprint is the canonical query fingerprint for the cross-generation
	// result cache (rcache.Fingerprint over the job's wire form). The zero
	// value marks the job uncacheable; the facade only computes fingerprints
	// when the engine's cache is enabled, so the default path never pays for
	// them.
	Fingerprint uint64
}

// JobResult is the outcome of one job. Which fields are set depends on the
// job's kind; Err is set when the job failed.
type JobResult struct {
	// Est is the counting outcome (Estimate, Cliques, Auto, Distinguish).
	Est *CountResult
	// Copy is the sampled copy (Sample).
	Copy SampledCopy
	// Found reports whether Sample witnessed a copy.
	Found bool
	// Above reports Distinguish's decision: #H >= (1+eps)·l.
	Above bool
	// Err is the job's error, if any.
	Err error
}

// JobHandle tracks one submitted job. Its result accessors are valid once
// Run has returned.
type JobHandle struct {
	job     Job
	ctx     context.Context // the job's own context (SubmitContext)
	res     JobResult
	rounds  int64 // rounds served by the scheduler; written under the barrier
	version int64 // stream version pinned by the Engine generation that served the job
}

// StreamVersion returns the stream version the job's Engine generation was
// pinned to: the job ran over exactly that prefix of the stream, and an
// identical job over the same prefix standalone returns a bit-identical
// result. It is 0 for jobs served outside an Engine (plain sessions pin
// nothing — they replay the stream they were given).
func (h *JobHandle) StreamVersion() int64 { return h.version }

// Job returns the submitted job description.
func (h *JobHandle) Job() Job { return h.job }

// Result returns the job's outcome. Valid after Session.Run has returned.
func (h *JobHandle) Result() JobResult { return h.res }

// Estimate returns the job's counting outcome (or its error). Valid after
// Session.Run has returned. Sample jobs have no counting outcome — read
// them through Result instead.
func (h *JobHandle) Estimate() (*CountResult, error) {
	if h.res.Err == nil && h.res.Est == nil {
		return nil, fmt.Errorf("core: %s job has no counting estimate; use Result", h.job.Kind)
	}
	return h.res.Est, h.res.Err
}

// Passes returns the number of shared passes this job rode — its own
// round-adaptivity, which for a standalone run would equal its private pass
// count. Valid after Session.Run has returned.
func (h *JobHandle) Passes() int64 { return h.rounds }

// NewSession creates a session over st. The stream is replayed through a
// session-owned stream.Counter, so Passes reports the true shared I/O cost.
//
// An appendable stream is pinned at its current version: multi-pass jobs
// must see one consistent prefix, so the session replays the immutable
// snapshot taken here and ignores updates appended while it runs. (Engine
// generations pin their own views before reaching this constructor.)
func NewSession(st stream.Stream) *Session {
	if a, ok := st.(*stream.Appendable); ok {
		st = a.Snapshot()
	}
	cnt := stream.NewCounter(st)
	return &Session{st: st, cnt: cnt, bc: stream.NewBroadcaster(cnt)}
}

// Passes returns the number of shared passes performed so far. After Run it
// equals the maximum per-job round count, not the sum.
func (s *Session) Passes() int64 { return s.cnt.Passes() }

// Submit registers a job. It must be called before Run; a handle submitted
// after Run carries an error result.
func (s *Session) Submit(j Job) *JobHandle {
	return s.SubmitContext(context.Background(), j)
}

// SubmitContext is Submit with a per-job context: when ctx is canceled the
// job fails with ErrCanceled at its next round boundary without disturbing
// the other jobs in the session (a shared pass it already requested is still
// served — per-job cancellation never aborts a pass other jobs ride).
func (s *Session) SubmitContext(ctx context.Context, j Job) *JobHandle {
	if ctx == nil {
		ctx = context.Background()
	}
	h := &JobHandle{job: j, ctx: ctx}
	if s.started {
		h.res.Err = fmt.Errorf("core: Submit after Session.Run: %w", ErrSessionDone)
		return h
	}
	s.jobs = append(s.jobs, h)
	return h
}

// roundReq is one job's request for its next query round.
type roundReq struct {
	h      *JobHandle
	runner oracle.PassRunner
	qs     []oracle.Query
	reply  chan roundReply
}

type roundReply struct {
	answers []oracle.Answer
	err     error
}

// Run executes all submitted jobs to completion and returns the first error
// (in submit order) any job hit, or nil. Every handle carries its own result
// either way, so multi-job callers can inspect each job individually.
func (s *Session) Run() error {
	return s.RunContext(context.Background())
}

// RunContext is Run under a session-wide context. Cancellation is checked
// between the update batches of every shared replay: canceling ctx mid-pass
// aborts the replay and fails every job still pending with an error wrapping
// ErrCanceled (and the context's own error); jobs between rounds fail at
// their next round request. The underlying stream is left replayable, so the
// caller can start a fresh session over it — a subsequent identical job at a
// fixed seed returns a bit-identical result to a never-canceled run.
func (s *Session) RunContext(ctx context.Context) error {
	if s.started {
		return fmt.Errorf("core: Session.Run called twice: %w", ErrSessionDone)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	s.started = true
	if len(s.jobs) == 0 {
		return nil
	}
	s.reqCh = make(chan *roundReq)
	doneCh := make(chan struct{})
	ex := s.exec()
	for _, h := range s.jobs {
		go func(h *JobHandle) {
			h.res = ex.execute(h)
			doneCh <- struct{}{}
		}(h)
	}

	// The round barrier: collect requests until every live job is either
	// pending or done, then serve all pending rounds with one shared pass.
	// Once the session context is canceled no further pass starts — pending
	// requests are failed directly, and their jobs unwind with ErrCanceled.
	live := len(s.jobs)
	var pending []*roundReq
	for live > 0 {
		select {
		case req := <-s.reqCh:
			pending = append(pending, req)
		case <-doneCh:
			live--
		}
		if live > 0 && len(pending) == live {
			if err := ctx.Err(); err != nil {
				for _, req := range pending {
					req.reply <- roundReply{err: canceled(err)}
				}
			} else {
				s.servePass(pending)
			}
			pending = pending[:0]
		}
	}
	for _, h := range s.jobs {
		if h.res.Err != nil {
			return h.res.Err
		}
	}
	return nil
}

// roundAborter is the optional cleanup hook of a pass runner: AbortRound
// discards an in-flight round (its samplers, its query references) after a
// failed pass. Both transform runners implement it.
type roundAborter interface{ AbortRound() }

// servePass answers one coalesced round: BeginRound on every pending runner,
// one broadcast replay of the stream feeding every runner each batch, then
// EndRound per runner. Each runner only ever sees its own state, so the
// serve order of the requests cannot influence any answer.
func (s *Session) servePass(reqs []*roundReq) {
	fail := func(err error) {
		for _, req := range reqs {
			// A failed pass leaves runners mid-round (some may not even
			// have begun); abort them so round-scoped resources are
			// released on every path.
			if ab, ok := req.runner.(roundAborter); ok {
				ab.AbortRound()
			}
			req.reply <- roundReply{err: err}
		}
	}
	for _, req := range reqs {
		if err := req.runner.BeginRound(req.qs); err != nil {
			// BeginRound refuses what the query or the stream's declared
			// universe makes unanswerable (the turnstile runner checks the
			// universe here, its constructors return no error), never a
			// transient fault.
			fail(fmt.Errorf("%w: %w", ErrBadConfig, err))
			return
		}
	}
	subs := make([]stream.Subscriber, len(reqs))
	for i, req := range reqs {
		subs[i] = req.runner
	}
	if err := s.bc.Replay(s.ctx, subs...); err != nil {
		// The pass was consumed (the stream Counter saw it) even though it
		// failed mid-replay; charge its riders so per-job and shared pass
		// accounting stay consistent on the error path. A cancellation is
		// reported as ErrCanceled, any other mid-replay failure as
		// ErrReplayFailed.
		for _, req := range reqs {
			req.h.rounds++
		}
		if isCtxErr(err) {
			fail(canceled(err))
		} else {
			fail(fmt.Errorf("%w: %w", ErrReplayFailed, err))
		}
		return
	}
	for _, req := range reqs {
		answers, err := req.runner.EndRound()
		req.h.rounds++
		req.reply <- roundReply{answers: answers, err: err}
	}
}

// sessionRunner is the oracle.Runner handed to a job's algorithm: Round
// parks the request at the session barrier and blocks until the shared pass
// that serves it completes. Everything else delegates to the job's own
// underlying pass runner.
type sessionRunner struct {
	inner oracle.PassRunner
	h     *JobHandle
	sess  *Session
	reqCh chan<- *roundReq
}

// ctxErr reports cancellation of the job's own context or the session-wide
// one, wrapped as ErrCanceled.
func (p *sessionRunner) ctxErr() error {
	if err := p.h.ctx.Err(); err != nil {
		return canceled(err)
	}
	if err := p.sess.ctx.Err(); err != nil {
		return canceled(err)
	}
	return nil
}

func (p *sessionRunner) Round(qs []oracle.Query) ([]oracle.Answer, error) {
	// Checked at every round boundary, so a canceled job stops requesting
	// passes; a cancel that lands while the request is parked is honored
	// after the (already coalesced) pass completes.
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	req := &roundReq{h: p.h, runner: p.inner, qs: qs, reply: make(chan roundReply, 1)}
	p.reqCh <- req
	rep := <-req.reply
	if rep.err == nil {
		if err := p.ctxErr(); err != nil {
			return nil, err
		}
	}
	return rep.answers, rep.err
}

// Release forwards the executor's success-path release to the pooled
// transform runner backing this proxy.
func (p *sessionRunner) Release() {
	if rel, ok := p.inner.(interface{ Release() }); ok {
		rel.Release()
	}
}

func (p *sessionRunner) Model() oracle.Model { return p.inner.Model() }
func (p *sessionRunner) Rounds() int64       { return p.inner.Rounds() }
func (p *sessionRunner) Queries() int64      { return p.inner.Queries() }
func (p *sessionRunner) SpaceWords() int64   { return p.inner.SpaceWords() }
func (p *sessionRunner) NumVertices() int64  { return p.inner.NumVertices() }

// newRunner builds the job's pass runner for the session's stream model and
// wraps it in the barrier proxy. The runner is constructed over the bare
// stream — it only uses it for n and the insert-only check; all replays go
// through the session's broadcaster. Runners come from the transform
// package's process-wide pools, so a generation's jobs reuse the grown
// scratch (reservoir banks, sampler cells, query tables) of the jobs the
// previous generations released instead of rebuilding it per wave. Only the
// turnstile runner takes the parallelism (its sampler stages); an insertion
// pass has one worker.
func (s *Session) newRunner(h *JobHandle, rng *rand.Rand, parallelism int) (oracle.Runner, error) {
	var inner oracle.PassRunner
	if s.st.InsertOnly() {
		r, err := transform.AcquireInsertionRunner(s.st, rng)
		if err != nil {
			// The one thing the constructor refuses over an insertion-only
			// stream is a universe a packed edge key cannot address.
			return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
		}
		inner = r
	} else {
		r := transform.AcquireTurnstileRunner(s.st, rng)
		r.SetParallelism(parallelism)
		inner = r
	}
	return &sessionRunner{inner: inner, h: h, sess: s, reqCh: s.reqCh}, nil
}

// exec builds the job executor bound to this session's stream and runner
// factory. The algorithms themselves live on executor (executor.go), shared
// with the watch fast path's replay-free runner.
func (s *Session) exec() *executor {
	return &executor{
		length:     s.st.Len(),
		insertOnly: s.st.InsertOnly(),
		newRunner:  s.newRunner,
	}
}
