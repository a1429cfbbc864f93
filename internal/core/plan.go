package core

import (
	"fmt"
	"math"

	"streamcount/internal/fgp"
)

// Plan is one job's budget, fixed before its first pass: everything the
// job's algorithm runs with, worked out from the job and the pinned stream
// it runs over. The executor builds it once per job, and nothing below it
// decides a budget. The ℓ0 geometry (transform) and the ERS constants
// (ers.Params) are not in it: their packages resolve them from their own
// inputs.
type Plan struct {
	// EdgeBound is the m the budget is derived from: Config.EdgeBound when
	// set, else the pinned stream's length. ERS jobs take the length.
	EdgeBound int64
	// Epsilon is the target relative error. The FGP-family jobs default it
	// to 0.1; an ERS job's is passed to ers as given.
	Epsilon float64
	// Rungs are the lower bounds the job runs at, in order. A job given L
	// (or fixed Trials) has one rung. Without L, counting jobs walk Lemma
	// 21's ladder and stop at the first rung whose estimate reaches its L.
	Rungs []Rung
	// FGP is the pattern's sampler plan, shared by every rung; nil for ERS.
	FGP *fgp.Plan
	// PassBound is the most passes one run may take: fgp.Plan.Rounds for
	// FGP, and Theorem 2's 5r for ERS.
	PassBound int64
}

// Rung is one run of a job: its lower bound L on #H and, for FGP, its
// instance count.
type Rung struct {
	L      float64
	Trials int
}

// NewPlan works out j's budget over a pinned stream of length edges
// (updates, for a turnstile stream) that is insertion-only or not.
func NewPlan(j Job, length int64, insertOnly bool) (Plan, error) {
	if j.Kind == JobCliques {
		c := j.Clique
		if !insertOnly {
			return Plan{}, fmt.Errorf("core: EstimateCliques requires an insertion-only stream (Theorem 2): %w", ErrBadConfig)
		}
		p := Plan{EdgeBound: length, Epsilon: c.Epsilon, PassBound: 5 * int64(c.R)}
		// #K_r ≤ m^{r/2} tops the ladder.
		return p.climb(c.LowerBound <= 0, c.LowerBound, float64(c.R)/2, func(float64) (int, error) { return 0, nil })
	}
	c := j.Config
	switch j.Kind {
	case JobEstimate, JobSample, JobAuto:
	case JobDistinguish:
		if j.Threshold <= 0 {
			return Plan{}, fmt.Errorf("core: threshold l must be positive: %w", ErrBadConfig)
		}
		c.LowerBound = j.Threshold
	default:
		return Plan{}, fmt.Errorf("core: unknown job kind %d: %w", j.Kind, ErrBadConfig)
	}
	if c.Pattern == nil {
		return Plan{}, fmt.Errorf("core: Pattern must be set: %w", ErrBadPattern)
	}
	if c.EdgeBound < 0 {
		return Plan{}, fmt.Errorf("core: negative EdgeBound %d: %w", c.EdgeBound, ErrBadConfig)
	}
	fp, err := fgp.NewPlan(c.Pattern)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{EdgeBound: c.EdgeBound, Epsilon: c.Epsilon, FGP: fp, PassBound: fp.Rounds()}
	if p.EdgeBound == 0 {
		p.EdgeBound = length
	}
	if p.Epsilon <= 0 {
		p.Epsilon = 0.1
	}
	if j.Kind == JobAuto {
		if p.EdgeBound <= 0 {
			return Plan{}, fmt.Errorf("core: EdgeBound must be set for the geometric search: %w", ErrBadConfig)
		}
		// Every guess derives its budget from its own L, so a fixed Trials
		// is dropped.
		c.Trials = 0
	}
	rho := fp.Rho()
	return p.climb(j.Kind == JobAuto, c.LowerBound, rho, func(l float64) (int, error) {
		if c.Trials > 0 {
			return c.Trials, nil
		}
		if l <= 0 || p.EdgeBound <= 0 {
			return 0, fmt.Errorf("core: either Trials or (Epsilon, LowerBound, EdgeBound) must be set: %w", ErrBadConfig)
		}
		limit := c.MaxTrials
		if limit <= 0 {
			limit = 1_000_000
		}
		return min(TrialsFor(p.EdgeBound, rho, p.Epsilon, l), limit), nil
	})
}

// climb returns p with its rungs: the one lower bound l, or with search
// Lemma 21's ladder — EdgeBound^exp, the AGM bound #H ≤ m^ρ(H), then
// halving while L ≥ 0.5; an empty prefix (m = 0) still gets one guess, at
// 0.5. trials gives each rung's FGP instance count.
func (p Plan) climb(search bool, l, exp float64, trials func(l float64) (int, error)) (Plan, error) {
	ls := []float64{l}
	if search {
		top := math.Max(math.Pow(float64(p.EdgeBound), exp), 0.5)
		if math.IsInf(top, 0) {
			return Plan{}, fmt.Errorf("core: search start %d^%g overflows: %w", p.EdgeBound, exp, ErrBadConfig)
		}
		ls = nil
		for l := top; l >= 0.5; l /= 2 {
			ls = append(ls, l)
		}
	}
	for _, l := range ls {
		t, err := trials(l)
		if err != nil {
			return Plan{}, err
		}
		p.Rungs = append(p.Rungs, Rung{L: l, Trials: t})
	}
	return p, nil
}

// TrialsFor returns the Theorem 17/1 instance count c·(2m)^ρ/(ε²·L),
// with the paper's ln n amplification replaced by the constant c = 3: by
// Chebyshev, a run at L = #H then misses by more than ε·#H with probability
// at most 1/3, the rate the Contract tests hold it to.
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
