package ers

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"streamcount/internal/oracle"
	"streamcount/internal/transform"
)

// Result carries the estimate and diagnostics of a Count run.
type Result struct {
	// Estimate is the median-of-invocations estimate of #K_r.
	Estimate float64
	// PerInvocation holds each invocation's estimate.
	PerInvocation []float64
	// Aborted is the number of invocations that hit the sample-size cutoff
	// (Algorithm 3 line 13).
	Aborted int
	// M is the edge count observed in the first pass.
	M int64
	// Rounds is the total adaptivity rounds (= passes on a streaming
	// runner) consumed, at most 5r (Theorem 2).
	Rounds int64
	// RrSizes is |R_r| per invocation.
	RrSizes []int
	// S2Sizes is s_2 per invocation — the dominant sample size, which
	// Theorem 2 predicts to scale as mλ^{r-2}/#K_r at fixed accuracy.
	S2Sizes []int64
	// MaxChainState is the largest algorithm-side state (in words) any
	// chain held, a proxy for the mλ^{r-2}/#K_r space term.
	MaxChainState int64
}

// invocationTask is one outer invocation of StreamApproxClique
// (Algorithm 3): sample R_2, learn its degrees, then run the level chain up
// to R_r. R_2 is built straight into the chain's flat level arrays: the
// second round writes each sampled edge's oriented endpoints into verts and,
// into the same positions of degs, which of its Degree queries will answer
// for them; the third round swaps those indices for the answers.
type invocationTask struct {
	chain levelChain
	m     int64

	state  int
	s2     int64
	omega1 float64
}

// rr returns the invocation's R_r. A chain that aborted, died out or never
// started holds some R_t with t < r (or nothing), which is not it.
func (iv *invocationTask) rr() (verts, degs []int64) {
	if c := &iv.chain; !c.aborted && c.t == c.env.p.R {
		return c.verts, c.degs
	}
	return nil, nil
}

func (iv *invocationTask) Step(prev []oracle.Answer, dst []oracle.Query) ([]oracle.Query, bool) {
	env := iv.chain.env
	switch iv.state {
	case 0:
		// s_2 = ⌈dg(R_1)·τ_2/ω̃_1 · SampleC⌉ with R_1 = E (dg(R_1) = 2m
		// counting both orientations).
		s2f := float64(2*iv.m) * env.p.tau(2) / iv.omega1 * env.p.SampleC
		iv.s2 = int64(s2f)
		if float64(iv.s2) < s2f {
			iv.s2++
		}
		if iv.s2 < 1 {
			iv.s2 = 1
		}
		if iv.s2 > env.p.MaxLevelSamples {
			iv.chain.aborted = true
			return dst, true
		}
		for i := int64(0); i < iv.s2; i++ {
			dst = append(dst, oracle.Query{Type: oracle.RandomEdge})
		}
		iv.state = 1
		return dst, false
	case 1:
		verts := env.arena.take(2 * len(prev))[:0]
		degs := env.arena.take(2 * len(prev))[:0]
		asked := make(map[int64]int64) // vertex -> index of its Degree query
		for _, a := range prev {
			if !a.OK {
				continue
			}
			u, v := a.Edge.U, a.Edge.V
			if env.rng.Intn(2) == 0 {
				u, v = v, u
			}
			for _, x := range [2]int64{u, v} {
				k, ok := asked[x]
				if !ok {
					k = int64(len(asked))
					asked[x] = k
					dst = append(dst, oracle.Query{Type: oracle.Degree, U: x})
				}
				verts, degs = append(verts, x), append(degs, k)
			}
		}
		if len(verts) == 0 {
			return dst, true
		}
		iv.chain.verts, iv.chain.degs = verts, degs
		iv.state = 2
		return dst, false
	case 2:
		degs := iv.chain.degs
		for i, k := range degs {
			degs[i] = prev[k].Count
		}
		// ω̃_2 = (1-γ)·ω̃_1·s_2/dg(R_1).
		omega2 := (1 - env.gamma) * iv.omega1 * float64(iv.s2) / float64(2*iv.m)
		iv.chain.start(env, 2, iv.chain.verts, degs, omega2)
		iv.state = 3
		return iv.chain.Step(nil, dst)
	default:
		return iv.chain.Step(prev, dst)
	}
}

// Count runs the full streaming ERS algorithm (Theorem 2): q parallel
// invocations of StreamApproxClique, a parallel activeness/assignment phase
// (StrIsAssigned/StrAct), and the median combine (Algorithm 2).
func Count(r oracle.Runner, p Params, rng *rand.Rand) (*Result, error) {
	return countImpl(r, p, rng, nil)
}

// CountWithActiveness is Count with the StrAct activeness estimation
// replaced by the supplied predicate (used by tests to validate the sampling
// chain and the assignment rule independently; the predicate receives the
// ordered prefix ⃗I).
func CountWithActiveness(r oracle.Runner, p Params, rng *rand.Rand, active func(prefix []int64) bool) (*Result, error) {
	if active == nil {
		return nil, fmt.Errorf("ers: nil activeness predicate")
	}
	return countImpl(r, p, rng, active)
}

func countImpl(r oracle.Runner, p Params, rng *rand.Rand, activeOverride func([]int64) bool) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Pass 1: count edges (Algorithm 3 pass 1).
	a, err := r.Round([]oracle.Query{{Type: oracle.CountEdges}})
	if err != nil {
		return nil, err
	}
	m := a[0].Count
	res.M = m
	if m == 0 {
		res.Estimate = 0
		res.Rounds = r.Rounds()
		return res, nil
	}

	// Phase 1: q parallel invocations build their R_r chains.
	rf := float64(p.R)
	invEnv := &chainEnv{p: p, rng: rng, gamma: p.Eps / (2 * rf)}
	invs := make([]invocationTask, p.Q)
	tasks := make([]transform.Task, p.Q)
	for j := range invs {
		invs[j] = invocationTask{chain: levelChain{env: invEnv}, m: m, omega1: (1 - p.Eps/2) * p.L}
		tasks[j] = &invs[j]
	}
	if _, err := transform.Run(r, tasks...); err != nil {
		return nil, err
	}

	// Phase 2: build the assignment jobs for every invocation and run all
	// their activeness chains in parallel rounds (StrIsAssigned/StrAct run
	// under a single "parallel for" in the paper).
	actEnv := &chainEnv{p: p, rng: rng, gamma: p.Eps / (8 * rf * factorial(p.R)), voteOnly: true}
	jobs := make([]*assignJob, p.Q)
	nact := 0
	for j := range invs {
		iv := &invs[j]
		if !iv.chain.aborted && iv.chain.maxState > res.MaxChainState {
			res.MaxChainState = iv.chain.maxState
		}
		verts, degs := iv.rr()
		jobs[j] = newAssignJob(actEnv, verts, degs, activeOverride)
		nact += len(jobs[j].chains)
	}
	if nact > 0 {
		tasks = make([]transform.Task, 0, nact)
		for _, job := range jobs {
			for i := range job.chains {
				tasks = append(tasks, &job.chains[i])
			}
		}
		if _, err := transform.Run(r, tasks...); err != nil {
			return nil, err
		}
	}

	// Phase 3 (offline): per-invocation estimates and the median combine.
	for j := range invs {
		iv := &invs[j]
		res.S2Sizes = append(res.S2Sizes, iv.s2)
		if iv.chain.aborted {
			res.Aborted++
			res.PerInvocation = append(res.PerInvocation, 0)
			res.RrSizes = append(res.RrSizes, 0)
			continue
		}
		rrLen := len(jobs[j].rr) / p.R
		res.RrSizes = append(res.RrSizes, rrLen)
		est := 0.0
		if rrLen > 0 {
			est = float64(2*m) / float64(iv.s2) * iv.chain.dgProd / iv.chain.sProd * float64(jobs[j].assignedCount())
		}
		res.PerInvocation = append(res.PerInvocation, est)
	}

	res.Estimate = median(res.PerInvocation)
	res.Rounds = r.Rounds()
	return res, nil
}

// assignJob holds one invocation's assignment work: the activeness check of
// every prefix of every ordering of every distinct clique in its R_r
// (StrIsAssigned, Algorithm 17). Cliques and prefixes are numbered in
// first-seen order (never map order): the activeness chains share the
// invocation's RNG, so a nondeterministic visit order would reshuffle the
// draw sequence and break the engine's fixed-seed reproducibility.
//
// Cliques and prefixes are keyed by their packed vertices. A prefix's QAct
// repetitions of StrAct (Algorithm 18) — level chains seeded with
// R_i = {⃗I} — sit side by side in chains, prefix-major, which is also the
// order they run and draw in; the job's whole task state is that one slice.
type assignJob struct {
	env    *chainEnv
	rr     []int64 // R_r, stride r
	clique []int32 // tuple of R_r -> its clique's number
	sorted []int64 // clique number -> its vertices ascending, stride r

	prefixes map[string]int32 // packed ⃗I -> prefix number
	active   []bool           // prefix number -> activeness: the override's answer, or assignedCount's vote
	level    []int            // prefix number -> |⃗I| (empty when overridden)
	chains   []levelChain     // prefix number -> its repetitions, QAct each
}

// appendKey packs vertices onto a map key.
func appendKey(key []byte, vs []int64) []byte {
	for _, v := range vs {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	return key
}

func newAssignJob(env *chainEnv, rr, rrDegs []int64, override func([]int64) bool) *assignJob {
	r := env.p.R
	j := &assignJob{env: env, rr: rr, prefixes: make(map[string]int32)}

	// Number the distinct cliques of R_r. A clique keeps its first tuple's
	// degrees, sorted along with the vertices; every tuple reports the same
	// degree for a vertex.
	var (
		sortedDegs []int64
		key        []byte
		cliques    = make(map[string]int32)
		vs, ds     = make([]int64, r), make([]int64, r)
	)
	for i := 0; i < len(rr); i += r {
		copy(vs, rr[i:i+r])
		copy(ds, rrDegs[i:i+r])
		for a := 1; a < r; a++ { // insertion sort: r is tiny
			for b := a; b > 0 && vs[b] < vs[b-1]; b-- {
				vs[b], vs[b-1] = vs[b-1], vs[b]
				ds[b], ds[b-1] = ds[b-1], ds[b]
			}
		}
		key = appendKey(key[:0], vs)
		c, ok := cliques[string(key)]
		if !ok {
			c = int32(len(cliques))
			cliques[string(key)] = c
			j.sorted = append(j.sorted, vs...)
			sortedDegs = append(sortedDegs, ds...)
		}
		j.clique = append(j.clique, c)
	}

	// Number the distinct prefixes, and collect the seed tuple of each one's
	// activeness check: its vertices, then their degrees.
	var seeds []int64
	ord := make([]int, r)
	for c := 0; c < len(j.sorted); c += r {
		for more := firstPermutation(ord); more; more = nextPermutation(ord) {
			for i := 2; i < r; i++ {
				for x, o := range ord[:i] {
					vs[x], ds[x] = j.sorted[c+o], sortedDegs[c+o]
				}
				key = appendKey(key[:0], vs[:i])
				if _, ok := j.prefixes[string(key)]; ok {
					continue
				}
				j.prefixes[string(key)] = int32(len(j.prefixes))
				if override != nil {
					j.active = append(j.active, override(vs[:i]))
					continue
				}
				j.level = append(j.level, i)
				seeds = append(append(seeds, vs[:i]...), ds[:i]...)
			}
		}
	}
	if override != nil {
		return j
	}
	j.active = make([]bool, len(j.level))
	j.chains = make([]levelChain, len(j.level)*env.p.QAct)
	reps := j.chains
	for _, i := range j.level {
		verts, degs := seeds[:i:i], seeds[i:2*i:2*i]
		seeds = seeds[2*i:]
		omega := (1 - env.p.Eps/2) * env.p.tau(i)
		for rep := range reps[:env.p.QAct] {
			reps[rep].start(env, i, verts, degs, omega)
		}
		reps = reps[env.p.QAct:]
	}
	return j
}

// vote returns χ_ℓ of one repetition of an activeness check: 1 when
// ĉ_r(⃗I) = (Π dg)/(Π s)·|R_r| is at most limit = τ_i/4 and the chain did not
// hit the cutoff.
func (c *levelChain) vote(limit float64) bool {
	return !c.aborted && c.dgProd/c.sProd*float64(c.size()) <= limit
}

// assignedCount finalizes activeness votes and counts the assigned tuples
// of R_r: a tuple is assigned iff it is the lexicographically first ordering
// of its clique whose every prefix (lengths 2..r-1) is active (Algorithm
// 15's semantics; see DESIGN.md on the Algorithm 17 discrepancy).
func (j *assignJob) assignedCount() int64 {
	r, qact := j.env.p.R, j.env.p.QAct
	for p, i := range j.level {
		limit := j.env.p.tau(i) / 4
		votes := 0
		for rep := range j.chains[p*qact : (p+1)*qact] {
			if j.chains[p*qact+rep].vote(limit) {
				votes++
			}
		}
		j.active[p] = votes*2 >= qact
	}
	// assigned holds each clique's assigned ordering, if it has one;
	// permutations of the ascending vertices arrive in lexicographic order.
	assigned := make([]int64, len(j.sorted))
	has := make([]bool, len(j.sorted)/r)
	var key []byte
	ord := make([]int, r)
	for c := 0; c < len(j.sorted); c += r {
		perm := assigned[c : c+r]
	search:
		for more := firstPermutation(ord); more; more = nextPermutation(ord) {
			for x, o := range ord {
				perm[x] = j.sorted[c+o]
			}
			for i := 2; i < r; i++ {
				key = appendKey(key[:0], perm[:i])
				if !j.active[j.prefixes[string(key)]] {
					continue search
				}
			}
			has[c/r] = true
			break
		}
	}
	var count int64
	for t, c := range j.clique {
		if has[c] && slices.Equal(assigned[int(c)*r:(int(c)+1)*r], j.rr[t*r:(t+1)*r]) {
			count++
		}
	}
	return count
}

// firstPermutation sets ord to the identity, the lexicographically first
// permutation of 0..len(ord)-1, and reports true: with nextPermutation it
// makes a for loop over all of them.
func firstPermutation(ord []int) bool {
	for i := range ord {
		ord[i] = i
	}
	return true
}

// nextPermutation advances ord to its lexicographic successor in place and
// reports whether there was one.
func nextPermutation(ord []int) bool {
	i := len(ord) - 2
	for i >= 0 && ord[i] > ord[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	k := len(ord) - 1
	for ord[k] < ord[i] {
		k--
	}
	ord[i], ord[k] = ord[k], ord[i]
	slices.Reverse(ord[i+1:])
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
