package core

import (
	"fmt"
	"math"
	"math/rand"

	"streamcount/internal/ers"
	"streamcount/internal/fgp"
	"streamcount/internal/oracle"
)

// executor runs one job's algorithm to completion against an abstract
// runner factory. It is the session's job-execution logic factored away
// from the pass scheduler, so the same algorithms (and the same budget
// accounting) can run over a barrier-scheduled streaming runner or over an
// incremental index that answers rounds without replaying the stream (the
// watch fast path, DESIGN.md §10). Results are a pure function of
// (job, runner semantics): two executors whose runners answer identically
// produce bit-identical CountResults.
type executor struct {
	// length is the stream length the EdgeBoundStreamLen sentinel resolves
	// to — the pinned prefix length.
	length int64
	// insertOnly gates the insertion-only algorithms (JobCliques).
	insertOnly bool
	// newRunner builds the job's oracle runner; rounds served through it
	// must tick h.rounds exactly as a session pass would.
	newRunner func(h *JobHandle, rng *rand.Rand, parallelism int) (oracle.Runner, error)
}

// releaseRunner returns a pooled runner's scratch to its pool. It is called
// only on success paths: a runner abandoned by an error may still be
// mid-round or referenced by in-flight machinery, and an unreleased runner
// is merely collected — correctness never depends on the release.
func releaseRunner(r oracle.Runner) {
	if rel, ok := r.(interface{ Release() }); ok {
		rel.Release()
	}
}

// execute runs one job to completion. All randomness is drawn from the
// job's private RNG, so results do not depend on any co-scheduled work.
func (x *executor) execute(h *JobHandle) JobResult {
	// The EdgeBoundStreamLen sentinel resolves against the prefix the job
	// actually runs over — for an Engine generation that is the pinned
	// view, so engine-served and standalone runs at the same pinned version
	// derive identical trial budgets.
	if h.job.Config.EdgeBound == EdgeBoundStreamLen {
		h.job.Config.EdgeBound = x.length
	}
	switch h.job.Kind {
	case JobEstimate:
		est, err := x.runEstimate(h, h.job.Config)
		return JobResult{Est: est, Err: err}
	case JobSample:
		cp, found, err := x.runSample(h, h.job.Config)
		return JobResult{Copy: cp, Found: found, Err: err}
	case JobCliques:
		est, err := x.runCliques(h, h.job.Clique)
		return JobResult{Est: est, Err: err}
	case JobAuto:
		est, err := x.runAuto(h, h.job.Config)
		return JobResult{Est: est, Err: err}
	case JobDistinguish:
		above, est, err := x.runDistinguish(h, h.job.Config, h.job.Threshold)
		return JobResult{Est: est, Above: above, Err: err}
	default:
		return JobResult{Err: fmt.Errorf("core: unknown job kind %d: %w", h.job.Kind, ErrBadConfig)}
	}
}

// runEstimate is the 3-pass FGP counting job (Theorem 17 insertion-only,
// Theorem 1 turnstile).
func (x *executor) runEstimate(h *JobHandle, cfg Config) (*CountResult, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("core: Pattern must be set: %w", ErrBadPattern)
	}
	trials, err := cfg.trials()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pl, err := fgp.NewPlan(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	r, err := x.newRunner(h, rng, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	res, err := fgp.CountParallel(r, pl, trials, rng, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &CountResult{
		Value:      res.Estimate,
		M:          res.M,
		Passes:     h.rounds, // cumulative: Auto guesses reuse the handle
		Queries:    r.Queries(),
		SpaceWords: r.SpaceWords(),
		Trials:     trials,
	}
	releaseRunner(r)
	return out, nil
}

// runSample is the 3-pass uniform sampler job (Lemma 16/18).
func (x *executor) runSample(h *JobHandle, cfg Config) (SampledCopy, bool, error) {
	if cfg.Pattern == nil {
		return SampledCopy{}, false, fmt.Errorf("core: Pattern must be set: %w", ErrBadPattern)
	}
	trials, err := cfg.trials()
	if err != nil {
		return SampledCopy{}, false, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pl, err := fgp.NewPlan(cfg.Pattern)
	if err != nil {
		return SampledCopy{}, false, err
	}
	r, err := x.newRunner(h, rng, cfg.Parallelism)
	if err != nil {
		return SampledCopy{}, false, err
	}
	sr, ok, err := fgp.SampleParallel(r, pl, trials, rng, cfg.Parallelism)
	if err != nil {
		return SampledCopy{}, false, err
	}
	releaseRunner(r)
	if !ok {
		return SampledCopy{}, false, nil
	}
	return SampledCopy{Edges: sr.Edges, Vertices: sr.Vertices}, true, nil
}

// runCliques is the 5r-pass ERS clique counting job (Theorem 2).
func (x *executor) runCliques(h *JobHandle, cfg CliqueConfig) (*CountResult, error) {
	if !x.insertOnly {
		return nil, fmt.Errorf("core: EstimateCliques requires an insertion-only stream (Theorem 2): %w", ErrBadConfig)
	}
	p := cfg.Params
	p.R = cfg.R
	p.Lambda = cfg.Lambda
	p.Eps = cfg.Epsilon
	p.L = cfg.LowerBound
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The ERS chain is sequential and its insertion passes have one worker.
	r, err := x.newRunner(h, rng, 1)
	if err != nil {
		return nil, err
	}
	res, err := ers.Count(r, p, rng)
	if err != nil {
		return nil, err
	}
	if h.rounds > int64(5*cfg.R) {
		return nil, fmt.Errorf("core: internal error: %d passes exceeds Theorem 2's 5r = %d", h.rounds, 5*cfg.R)
	}
	out := &CountResult{
		Value:      res.Estimate,
		M:          res.M,
		Passes:     h.rounds,
		Queries:    r.Queries(),
		SpaceWords: r.SpaceWords(),
	}
	releaseRunner(r)
	return out, nil
}

// runAuto is the geometric search over lower-bound guesses (cf. Lemma 21):
// the 3-pass counter runs at the trial budget for each guess until the
// estimate validates the guess. Every guess re-seeds from cfg.Seed (so each
// guess is the exact run a standalone JobEstimate at that lower bound would
// produce), and pass/query/space accounting is cumulative across
// guesses — the handle's round count ticks once per served round, so Passes
// reports the total the search consumed, not the final guess's share.
func (x *executor) runAuto(h *JobHandle, cfg Config) (*CountResult, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("core: Pattern must be set: %w", ErrBadPattern)
	}
	if cfg.EdgeBound <= 0 {
		return nil, fmt.Errorf("core: EdgeBound must be set for the geometric search: %w", ErrBadConfig)
	}
	rho := cfg.Pattern.Rho()
	// Start from the AGM upper bound #H <= m^ρ and halve.
	start := math.Pow(float64(cfg.EdgeBound), rho)
	var last *CountResult
	for l := start; l >= 0.5; l /= 2 {
		sub := cfg
		sub.LowerBound = l
		sub.Trials = 0
		est, err := x.runEstimate(h, sub)
		if err != nil {
			return nil, err
		}
		if last != nil {
			est.Queries += last.Queries
			est.SpaceWords += last.SpaceWords
		}
		last = est
		if est.Value >= l {
			return est, nil
		}
	}
	return last, nil
}

// runDistinguish is the decision job (§1.1): is #H at least (1+eps)·l or at
// most l, decided at the midpoint of an eps/2-accurate estimate.
func (x *executor) runDistinguish(h *JobHandle, cfg Config, l float64) (bool, *CountResult, error) {
	if l <= 0 {
		return false, nil, fmt.Errorf("core: threshold l must be positive: %w", ErrBadConfig)
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.1
	}
	cfg.LowerBound = l
	if cfg.Trials == 0 && cfg.EdgeBound <= 0 {
		return false, nil, fmt.Errorf("core: either Trials or EdgeBound must be set: %w", ErrBadConfig)
	}
	est, err := x.runEstimate(h, cfg)
	if err != nil {
		return false, nil, err
	}
	return est.Value >= (1+cfg.Epsilon/2)*l, est, nil
}
