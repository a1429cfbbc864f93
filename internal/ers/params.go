// Package ers implements the Eden–Ron–Seshadhri clique counter for
// low-degeneracy graphs [ERS20], simplified for the augmented general graph
// model as described in Section 5 of the paper, and its 5r-pass
// insertion-only streaming incarnation (Theorem 2, resolving the
// Bera–Seshadhri conjecture).
//
// The algorithm is written once against oracle.Runner as a round-adaptive
// program (Algorithms 2–4 and 17–18): running it on oracle.Direct gives the
// sublinear-time query algorithm, and on transform.InsertionRunner the
// streaming algorithm via Theorem 9. All parallel work (the q outer
// invocations, the s_{t+1} samples per level, and every activeness check)
// shares passes, which is what keeps the pass count at O(r).
package ers

import (
	"fmt"
	"math"
)

// Params configures the counter.
//
// The paper's parameter choices (Algorithm 2/3/18) make the union bounds of
// the analysis go through but are far too large to execute: τ_t =
// r^{4r}/(β^r·γ²)·λ^{r-t} and sample factors 3ln(2/β)/γ² reach 10^9 even for
// r = 3. The fields below default to practical values with the same
// *structure* (τ_t ∝ λ^{r-t}, s_{t+1} ∝ dg(R_t)·τ_{t+1}/ω̃_t); PaperTauC and
// PaperSampleC return the paper's constants for callers who want them.
// DESIGN.md discusses this substitution.
type Params struct {
	// R is the clique size r >= 3.
	R int
	// Lambda is the degeneracy bound λ >= 1 of the input graph.
	Lambda int64
	// Eps is the target relative accuracy ε ∈ (0,1).
	Eps float64
	// L is a lower bound on #K_r (the paper's standard parameterization;
	// Lemma 21 uses geometric search over L when it is unknown).
	L float64
	// Q is the number of outer invocations whose median is returned
	// (Algorithm 2's Θ(log n); default 5).
	Q int
	// QAct is the number of repetitions per activeness check (Algorithm
	// 18's 12·ln(n^{r+10}); default 7).
	QAct int
	// TauC scales the activeness thresholds: τ_t = TauC·(r-t)!·λ^{r-t} for
	// t < r and τ_r = 1. Default 8.
	TauC float64
	// SampleC is the oversampling factor in s_{t+1} = ⌈dg(R_t)·τ_{t+1}/ω̃_t ·
	// SampleC⌉. Default 2/ε².
	SampleC float64
	// MaxLevelSamples aborts an invocation whose s_{t+1} exceeds this cap,
	// mirroring Algorithm 3 line 13's abort. Default 5_000_000.
	MaxLevelSamples int64
}

// withDefaults validates and fills defaults.
func (p Params) withDefaults() (Params, error) {
	if p.R < 3 {
		return p, fmt.Errorf("ers: R must be >= 3, got %d", p.R)
	}
	if p.Lambda < 1 {
		return p, fmt.Errorf("ers: Lambda must be >= 1, got %d", p.Lambda)
	}
	if p.Eps <= 0 || p.Eps >= 1 {
		return p, fmt.Errorf("ers: Eps must be in (0,1), got %g", p.Eps)
	}
	if p.L <= 0 {
		return p, fmt.Errorf("ers: L (lower bound on #K_r) must be positive, got %g", p.L)
	}
	if p.Q <= 0 {
		p.Q = 5
	}
	if p.QAct <= 0 {
		p.QAct = 7
	}
	if p.TauC <= 0 {
		p.TauC = 8
	}
	if p.SampleC <= 0 {
		p.SampleC = 2 / (p.Eps * p.Eps)
	}
	if p.MaxLevelSamples <= 0 {
		p.MaxLevelSamples = 5_000_000
	}
	return p, nil
}

// tau returns the activeness threshold τ_t.
func (p Params) tau(t int) float64 {
	if t >= p.R {
		return 1
	}
	return p.TauC * factorial(p.R-t) * math.Pow(float64(p.Lambda), float64(p.R-t))
}

func factorial(k int) float64 {
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return f
}

// PaperTauC returns the paper's τ constant r^{4r}/(β^r·γ²) with β = 1/(6r)
// and γ = ε/(8r·r!) (Algorithm 2). It is astronomically large for any
// practical run and is provided for documentation.
func PaperTauC(r int, eps float64) float64 {
	beta := 1.0 / (6 * float64(r))
	gamma := eps / (8 * float64(r) * factorial(r))
	return math.Pow(float64(r), 4*float64(r)) / (math.Pow(beta, float64(r)) * gamma * gamma)
}

// PaperSampleC returns the paper's oversampling factor 3·ln(2/β)/γ² with
// Algorithm 3's β = 1/(18r), γ = ε/(2r).
func PaperSampleC(r int, eps float64) float64 {
	beta := 1.0 / (18 * float64(r))
	gamma := eps / (2 * float64(r))
	return 3 * math.Log(2/beta) / (gamma * gamma)
}
