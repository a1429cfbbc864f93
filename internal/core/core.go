// Package core is the library's high-level entry point: it wires a pattern,
// a stream, and an accuracy budget to the paper's algorithms. A Job names
// one of them:
//
//   - JobEstimate runs the 3-pass FGP counting algorithm — Theorem 17 on
//     insertion-only streams, Theorem 1 on turnstile streams (the runner is
//     selected from the stream's contents);
//   - JobCliques runs the 5r-pass ERS clique counter for low-degeneracy
//     graphs (Theorem 2) on insertion-only streams, under the lower-bound
//     search when no lower bound is given;
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
	// EdgeBound is an upper bound on m used to derive Trials and to start
	// JobAuto's search (the paper spawns its m-dependent instance counts up
	// front). Zero means the length of the stream the job runs over, which
	// for an Engine generation is the pinned prefix — so the derived budget
	// depends only on the pinned (seed, version), never on submission
	// timing. Negative is ErrBadConfig.
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
	// LowerBound is a lower bound on #K_r; 0 runs the geometric search
	// over guesses (cf. Lemma 21) instead.
	LowerBound float64
	// Params exposes the remaining ERS knobs; zero values take defaults.
	Params ers.Params
	// Seed seeds the run's randomness.
	Seed int64
}
