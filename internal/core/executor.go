package core

import (
	"fmt"
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
	// length is the pinned prefix's length, the edge bound a job's plan
	// defaults to.
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

// execute runs one job to completion under the plan it makes before the
// first pass. The plan reads the prefix the job actually runs over — for an
// Engine generation the pinned view — so engine-served and standalone runs
// at the same pinned version derive identical budgets. All randomness is
// drawn from the job's private RNG, so results do not depend on any
// co-scheduled work.
func (x *executor) execute(h *JobHandle) JobResult {
	plan, err := NewPlan(h.job, x.length, x.insertOnly)
	if err != nil {
		return JobResult{Err: err}
	}
	pl := &plan
	switch h.job.Kind {
	case JobSample:
		cp, found, err := x.runSample(h, pl)
		return JobResult{Copy: cp, Found: found, Err: err}
	case JobDistinguish:
		// The decision job (§1.1): is #H at least (1+ε)·l or at most l,
		// decided at the midpoint of an ε/2-accurate estimate.
		est, err := x.runCount(h, pl, pl.Rungs[0])
		if err != nil {
			return JobResult{Err: err}
		}
		return JobResult{Est: est, Above: est.Value >= (1+float64(pl.Epsilon/2))*h.job.Threshold}
	default:
		est, err := x.search(h, pl)
		return JobResult{Est: est, Err: err}
	}
}

// runCount is one counting run at rung r: the 3-pass FGP counter (Theorem
// 17 insertion-only, Theorem 1 turnstile) or, for a clique job, the
// 5r-pass ERS counter (Theorem 2).
func (x *executor) runCount(h *JobHandle, pl *Plan, r Rung) (*CountResult, error) {
	before := h.rounds
	seed, parallelism := h.job.Config.Seed, h.job.Config.Parallelism
	if pl.FGP == nil {
		// The ERS chain is sequential and its insertion passes have one
		// worker.
		seed, parallelism = h.job.Clique.Seed, 1
	}
	rng := rand.New(rand.NewSource(seed))
	run, err := x.newRunner(h, rng, parallelism)
	if err != nil {
		return nil, err
	}
	out := &CountResult{Trials: r.Trials}
	if pl.FGP != nil {
		res, err := fgp.CountParallel(run, pl.FGP, r.Trials, rng, parallelism)
		if err != nil {
			return nil, err
		}
		out.Value, out.M = res.Estimate, res.M
	} else {
		c := h.job.Clique
		p := c.Params
		p.R, p.Lambda, p.Eps, p.L = c.R, c.Lambda, pl.Epsilon, r.L
		res, err := ers.Count(run, p, rng)
		if err != nil {
			return nil, err
		}
		out.Value, out.M = res.Estimate, res.M
	}
	if n := h.rounds - before; n > pl.PassBound {
		return nil, fmt.Errorf("core: internal error: %d passes exceeds the plan's bound %d", n, pl.PassBound)
	}
	out.Passes = h.rounds // cumulative: search guesses reuse the handle
	out.Queries, out.SpaceWords = run.Queries(), run.SpaceWords()
	releaseRunner(run)
	return out, nil
}

// runSample is the 3-pass uniform sampler job (Lemma 16/18).
func (x *executor) runSample(h *JobHandle, pl *Plan) (SampledCopy, bool, error) {
	cfg := h.job.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	r, err := x.newRunner(h, rng, cfg.Parallelism)
	if err != nil {
		return SampledCopy{}, false, err
	}
	sr, ok, err := fgp.SampleParallel(r, pl.FGP, pl.Rungs[0].Trials, rng, cfg.Parallelism)
	if err != nil {
		return SampledCopy{}, false, err
	}
	releaseRunner(r)
	if !ok {
		return SampledCopy{}, false, nil
	}
	return SampledCopy{Edges: sr.Edges, Vertices: sr.Vertices}, true, nil
}

// search counts at each of the plan's rungs in order and accepts the first
// estimate that reaches its rung's L (Lemma 21): when L ≤ #H the counter
// concentrates, and when L > #H its output falls below L w.h.p. When no
// guess is accepted, as on a graph with no copy, the last guess's result
// stands. A plan with one rung is a single run. Every guess re-seeds from
// the job's seed, so it is the exact run a job given that L would produce,
// and Queries and SpaceWords are summed over the guesses. Passes needs no
// sum: each guess reports the handle's cumulative round count.
func (x *executor) search(h *JobHandle, pl *Plan) (*CountResult, error) {
	var last *CountResult
	for _, r := range pl.Rungs {
		est, err := x.runCount(h, pl, r)
		if err != nil {
			return nil, err
		}
		if last != nil {
			est.Queries += last.Queries
			est.SpaceWords += last.SpaceWords
		}
		last = est
		if est.Value >= r.L {
			return est, nil
		}
	}
	return last, nil
}
