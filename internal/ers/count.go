package ers

import (
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
		// A vertex's number is the index of its Degree query.
		asked := &env.numbers
		asked.resetFor(2*len(prev), 1)
		for _, a := range prev {
			if !a.OK {
				continue
			}
			uv := [2]int64{a.Edge.U, a.Edge.V}
			if env.rng.Intn(2) == 0 {
				uv[0], uv[1] = uv[1], uv[0]
			}
			for x := range uv {
				k, fresh := asked.number(uv[x : x+1])
				if fresh {
					dst = append(dst, oracle.Query{Type: oracle.Degree, U: uv[x]})
				}
				verts, degs = append(verts, uv[x]), append(degs, int64(k))
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

// countImpl runs a count out of a pooled scratch, which it puts back on
// success only: after a failed round the runner may still hold the batch the
// scratch's tasks appended to (DESIGN.md §12).
func countImpl(r oracle.Runner, p Params, rng *rand.Rand, activeOverride func([]int64) bool) (*Result, error) {
	sc := countScratchPool.Get()
	res, err := sc.count(r, p, rng, activeOverride)
	if err != nil {
		return nil, err
	}
	countScratchPool.Put(sc)
	return res, nil
}

// count is a Count on a scratch that is new or reset.
func (sc *countScratch) count(r oracle.Runner, p Params, rng *rand.Rand, activeOverride func([]int64) bool) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Pass 1: count edges (Algorithm 3 pass 1).
	sc.first[0] = oracle.Query{Type: oracle.CountEdges}
	a, err := r.Round(sc.first[:])
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
	inv, act := &sc.inv, &sc.act
	inv.p, inv.rng, inv.gamma, inv.voteOnly = p, rng, p.Eps/(2*rf), false
	act.p, act.rng, act.gamma, act.voteOnly = p, rng, p.Eps/(8*rf*factorial(p.R)), true
	sc.invs = reserve(sc.invs, p.Q)[:p.Q]
	for j := range sc.invs {
		sc.invs[j] = invocationTask{chain: levelChain{env: inv}, m: m, omega1: (1 - float64(p.Eps/2)) * p.L}
		sc.tasks = append(sc.tasks, &sc.invs[j])
	}
	if _, err := transform.Run(r, sc.tasks...); err != nil {
		return nil, err
	}

	// Phase 2: build the assignment jobs for every invocation and run all
	// their activeness chains in parallel rounds (StrIsAssigned/StrAct run
	// under a single "parallel for" in the paper). The env has a slot for
	// every job before the first is built, so job j is act.jobs[j].
	if n := p.Q - len(act.jobs); n > 0 {
		act.jobs = append(act.jobs, make([]assignJob, n)...)
	}
	for j := range sc.invs {
		iv := &sc.invs[j]
		if !iv.chain.aborted && iv.chain.maxState > res.MaxChainState {
			res.MaxChainState = iv.chain.maxState
		}
		verts, degs := iv.rr()
		newAssignJob(act, verts, degs, activeOverride)
	}
	if len(act.chains) > 0 {
		// A job built while the slab grew holds its chains in the slab's
		// old array, so the tasks are collected from the jobs.
		sc.tasks = reserve(sc.tasks[:0], len(act.chains))
		for j := range act.jobs[:p.Q] {
			for i := range act.jobs[j].chains {
				sc.tasks = append(sc.tasks, &act.jobs[j].chains[i])
			}
		}
		if _, err := transform.Run(r, sc.tasks...); err != nil {
			return nil, err
		}
	}

	// Phase 3 (offline): per-invocation estimates and the median combine.
	res.PerInvocation = make([]float64, p.Q)
	res.RrSizes = make([]int, p.Q)
	res.S2Sizes = make([]int64, p.Q)
	for j := range sc.invs {
		iv := &sc.invs[j]
		res.S2Sizes[j] = iv.s2
		if iv.chain.aborted {
			res.Aborted++
			continue
		}
		job := &act.jobs[j]
		rrLen := len(job.rr) / p.R
		res.RrSizes[j] = rrLen
		if rrLen > 0 {
			res.PerInvocation[j] = float64(2*m) / float64(iv.s2) * iv.chain.dgProd / iv.chain.sProd * float64(job.assignedCount())
		}
	}

	res.Estimate = median(res.PerInvocation)
	res.Rounds = r.Rounds()
	return res, nil
}

// assignJob holds one invocation's assignment work: the activeness check of
// every prefix of every ordering of every distinct clique in its R_r
// (StrIsAssigned, Algorithm 17). Cliques and prefixes are numbered in
// first-seen order (never table order): the activeness chains share the
// invocation's RNG, so a visit order that depended on where a tuple lands
// in a table would reshuffle the draw sequence and break the engine's
// fixed-seed reproducibility.
//
// A prefix's QAct repetitions of StrAct (Algorithm 18) — level chains seeded
// with R_i = {⃗I} — sit side by side in chains, prefix-major, which is also
// the order they run and draw in; the job's chains are one run of its env's
// slab, after the chains of the jobs built before it. A job lives in a slot
// of its env and keeps its arrays from one count to the next.
type assignJob struct {
	env        *chainEnv
	rr         []int64 // R_r, stride r
	clique     []int32 // tuple of R_r -> its clique's number
	sorted     []int64 // clique number -> its vertices ascending, stride r
	sortedDegs []int64 // clique number -> its first tuple's degrees, along sorted
	// perms holds, clique by clique and for every ordering of its vertices
	// in lexicographic order, the numbers of the ordering's prefixes of
	// lengths 2..r-1.
	perms  []int32
	active []bool       // prefix number -> activeness: the override's answer, or assignedCount's vote
	level  []int        // prefix number -> |⃗I| (empty when overridden)
	seeds  []int64      // per prefix, its activeness check's seed tuple: |⃗I| vertices, then their degrees
	chains []levelChain // prefix number -> its repetitions, QAct each

	// assignedCount's: each clique's assigned ordering, if it has one.
	assigned []int64
	has      []bool
}

// newAssignJob builds the next job of env from an invocation's R_r and its
// degrees, in the env's next job slot: it numbers the cliques and the
// prefixes and, unless override decides activeness, cuts the job's chains
// from env's slab and starts them.
func newAssignJob(env *chainEnv, rr, rrDegs []int64, override func([]int64) bool) *assignJob {
	if env.njobs == len(env.jobs) {
		env.jobs = append(env.jobs, assignJob{})
	}
	j := &env.jobs[env.njobs]
	env.njobs++
	// Every array is given the room its bound needs before it is filled, so
	// a slot that is short of room allocates once per array, not once per
	// doubling.
	r := env.p.R
	tuples := len(rr) / r
	*j = assignJob{
		env: env, rr: rr,
		clique: reserve(j.clique[:0], tuples), sorted: reserve(j.sorted[:0], len(rr)),
		sortedDegs: reserve(j.sortedDegs[:0], len(rr)),
		perms:      j.perms[:0], active: j.active[:0], level: j.level[:0], seeds: j.seeds[:0],
		assigned: j.assigned, has: j.has,
	}
	env.ord = reserve(env.ord[:0], r)[:r]
	env.vs = reserve(env.vs[:0], r)[:r]
	env.ds = reserve(env.ds[:0], r)[:r]
	ord, vs, ds := env.ord, env.vs, env.ds

	// Number the distinct cliques of R_r. A clique keeps its first tuple's
	// degrees, sorted along with the vertices; every tuple reports the same
	// degree for a vertex.
	numbers := &env.numbers
	numbers.resetFor(tuples, r)
	for i := 0; i < len(rr); i += r {
		copy(vs, rr[i:i+r])
		copy(ds, rrDegs[i:i+r])
		for a := 1; a < r; a++ { // insertion sort: r is tiny
			for b := a; b > 0 && vs[b] < vs[b-1]; b-- {
				vs[b], vs[b-1] = vs[b-1], vs[b]
				ds[b], ds[b-1] = ds[b-1], ds[b]
			}
		}
		c, fresh := numbers.number(vs)
		if fresh {
			j.sorted = append(j.sorted, vs...)
			j.sortedDegs = append(j.sortedDegs, ds...)
		}
		j.clique = append(j.clique, c)
	}

	// Number the distinct prefixes, and collect the seed tuple of each one's
	// activeness check.
	cliques := len(j.sorted) / r
	perClique, distinct := prefixBounds(r)
	j.perms = reserve(j.perms, cliques*perClique)
	numbers.resetFor(cliques*distinct, r-1)
	if override != nil {
		j.active = reserve(j.active, cliques*distinct)
	} else {
		j.level = reserve(j.level, cliques*distinct)
		j.seeds = reserve(j.seeds, 2*(r-1)*cliques*distinct)
	}
	for c := 0; c < len(j.sorted); c += r {
		for more := firstPermutation(ord); more; more = nextPermutation(ord) {
			for i := 2; i < r; i++ {
				for x, o := range ord[:i] {
					vs[x], ds[x] = j.sorted[c+o], j.sortedDegs[c+o]
				}
				k, fresh := numbers.number(vs[:i])
				j.perms = append(j.perms, k)
				if !fresh {
					continue
				}
				if override != nil {
					j.active = append(j.active, override(vs[:i]))
					continue
				}
				j.level = append(j.level, i)
				j.seeds = append(append(j.seeds, vs[:i]...), ds[:i]...)
			}
		}
	}
	if override != nil {
		return j
	}
	j.active = reserve(j.active, len(j.level))[:len(j.level)]
	n, k, qact := len(env.chains), len(j.level)*env.p.QAct, env.p.QAct
	env.chains = reserve(env.chains, k)[:n+k]
	j.chains = env.chains[n : n+k : n+k]
	reps, seeds := j.chains, j.seeds
	for _, i := range j.level {
		verts, degs := seeds[:i:i], seeds[i:2*i:2*i]
		seeds = seeds[2*i:]
		omega := (1 - float64(env.p.Eps/2)) * env.p.tau(i)
		for rep := range reps[:qact] {
			reps[rep].start(env, i, verts, degs, omega)
		}
		reps = reps[qact:]
	}
	return j
}

// prefixBounds returns, for one r-clique, how many prefix numbers
// newAssignJob records — r-2 for each of its r! orderings — and how many
// distinct prefixes it has: the ordered i-subsets of its vertices, 2 ≤ i < r.
func prefixBounds(r int) (perClique, distinct int) {
	ordered := r // r!/(r-i)!, the ordered i-subsets, at i = 1
	for i := 2; i < r; i++ {
		ordered *= r - i + 1
		distinct += ordered
	}
	return ordered * (r - 2), distinct // at i = r-1, ordered is r!
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
	// permutations of the ascending vertices arrive in lexicographic order,
	// each with its prefixes' numbers in perms.
	ncliques := len(j.sorted) / r
	j.assigned = reserve(j.assigned[:0], len(j.sorted))[:len(j.sorted)]
	j.has = reserve(j.has[:0], ncliques)[:ncliques]
	clear(j.has)
	assigned, has, ord := j.assigned, j.has, j.env.ord
	for c := 0; c < ncliques; c++ {
		perms := j.perms[c*len(j.perms)/ncliques:]
	search:
		for more := firstPermutation(ord); more; more = nextPermutation(ord) {
			pfx := perms[:r-2]
			perms = perms[r-2:]
			for _, k := range pfx {
				if !j.active[k] {
					continue search
				}
			}
			for x, o := range ord {
				assigned[c*r+x] = j.sorted[c*r+o]
			}
			has[c] = true
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
