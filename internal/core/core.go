// Package core is the library's high-level entry point: it wires a pattern,
// a stream, and an accuracy budget to the paper's algorithms. A Job names
// one of them:
//
//   - JobEstimate runs the 3-pass FGP counting algorithm — Theorem 17 on
//     insertion-only streams, Theorem 1 on turnstile streams (the runner is
//     selected from the stream's contents);
//   - JobCliques runs the 5r-pass ERS clique counter for low-degeneracy
//     graphs (Theorem 2) on insertion-only streams;
//   - JobSample draws a uniformly random copy of H (Lemma 16/18);
//   - JobAuto and JobDistinguish are the lower-bound search and the
//     decision variant built on JobEstimate.
//
// A Session binds any number of jobs to one stream and coalesces the rounds
// they are concurrently waiting on into shared passes, so K jobs cost
// max-rounds passes instead of the sum (DESIGN.md §2.5); RunJob is the
// single-job session. Every result reports passes, queries and emulation
// space so experiments can verify the paper's complexity claims.
package core

import (
	"context"
	"fmt"
	"math"

	"streamcount/internal/ers"
	"streamcount/internal/graph"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// Config configures the FGP-family jobs (JobEstimate, JobSample, JobAuto,
// JobDistinguish).
type Config struct {
	// Pattern is the target subgraph H.
	Pattern *pattern.Pattern
	// Trials is the number of parallel sampler instances. If zero it is
	// derived from Epsilon, LowerBound and EdgeBound via TrialsFor.
	Trials int
	// Epsilon is the target relative error, used when Trials is zero
	// (default 0.1).
	Epsilon float64
	// LowerBound is a lower bound L on #H (the paper's parameterization);
	// used only when Trials is zero.
	LowerBound float64
	// EdgeBound is an upper bound on m used to derive Trials when Trials is
	// zero (the paper assumes m-dependent instance counts are spawned up
	// front; callers usually know the stream length). The sentinel
	// EdgeBoundStreamLen defers resolution to job start: the bound becomes
	// the length of the stream the session replays, which for an Engine
	// generation is the pinned prefix — so the derived budget depends only
	// on the pinned (seed, version), never on submission timing.
	EdgeBound int64
	// MaxTrials caps derived trial counts (default 1_000_000).
	MaxTrials int
	// Seed seeds the run's randomness.
	Seed int64
	// Parallelism bounds the worker goroutines of the per-trial pipeline and
	// of a turnstile pass's sampler stages (an insertion pass has one
	// worker). 0 selects GOMAXPROCS; 1 forces the sequential path. For a
	// fixed Seed the estimate is bit-identical at any Parallelism
	// (DESIGN.md §2).
	Parallelism int
}

// EdgeBoundStreamLen is the Config.EdgeBound sentinel meaning "the length
// of the stream this job runs over, resolved when the job starts". The
// query API uses it so that a query submitted to an Engine over a live
// appendable stream derives its trial budget from the generation's pinned
// version, not from whatever length the stream had at submission time.
const EdgeBoundStreamLen int64 = -1

// CountResult is the outcome of a counting run.
type CountResult struct {
	// Value is the estimate of #H (or #K_r).
	Value float64
	// M is the number of edges seen in the first pass.
	M int64
	// Passes is the number of passes the job consumed. Inside a multi-job
	// session it is the job's own round count — the passes a standalone run
	// would have cost; the shared total is Session.Passes.
	Passes int64
	// Queries is the number of emulated oracle queries.
	Queries int64
	// SpaceWords is the emulation state in 64-bit words.
	SpaceWords int64
	// Trials is the number of parallel instances used (FGP only).
	Trials int
}

// TrialsFor returns the Theorem 17/1 instance count c·(2m)^ρ/(ε²·L),
// with the paper's ln n amplification replaced by a constant (experiments
// report the constant they use; c = 3 here).
func TrialsFor(m int64, rho float64, eps, lowerBound float64) int {
	if m <= 0 || lowerBound <= 0 {
		return 1
	}
	k := 3 * math.Pow(float64(2*m), rho) / (eps * eps * lowerBound)
	if k < 1 {
		return 1
	}
	if k > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

func (c Config) trials() (int, error) {
	if c.Trials > 0 {
		return c.Trials, nil
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.LowerBound <= 0 || c.EdgeBound <= 0 {
		return 0, fmt.Errorf("core: either Trials or (Epsilon, LowerBound, EdgeBound) must be set: %w", ErrBadConfig)
	}
	t := TrialsFor(c.EdgeBound, c.Pattern.Rho(), c.Epsilon, c.LowerBound)
	max := c.MaxTrials
	if max <= 0 {
		max = 1_000_000
	}
	if t > max {
		t = max
	}
	return t, nil
}

// RunJob submits one job to a fresh single-job session over st and runs it
// under ctx: cancellation is checked between the update batches of every
// pass, and a canceled job's error wraps ErrCanceled. It is the one-shot
// entry point the facade's query API builds on.
func RunJob(ctx context.Context, st stream.Stream, j Job) (*JobHandle, error) {
	s := NewSession(st)
	h := s.SubmitContext(ctx, j)
	if err := s.RunContext(ctx); err != nil {
		return nil, err
	}
	return h, nil
}

// SampledCopy is a uniformly sampled copy of H.
type SampledCopy struct {
	Edges    []graph.Edge
	Vertices []int64
}

// CliqueConfig configures JobCliques.
type CliqueConfig struct {
	// R is the clique size r >= 3.
	R int
	// Lambda is the degeneracy bound of the input graph.
	Lambda int64
	// Epsilon is the target relative error.
	Epsilon float64
	// LowerBound is a lower bound on #K_r.
	LowerBound float64
	// Params exposes the remaining ERS knobs; zero values take defaults.
	Params ers.Params
	// Seed seeds the run's randomness.
	Seed int64
}
