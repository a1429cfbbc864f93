package ers

// The level chain as it was before ISSUE 18 — a slice of tuples per level,
// fmt-printed map keys, a heap object per chain, per repetition and per
// sampled edge, a fresh query slice per task per round — kept verbatim (under
// ref names, with the one abort fix marked below) as the oracle the flat
// chain is compared against: same answers in, same RNG draws, same Result,
// field for field. The reference still asks every check query; it tallies
// the ones the flat chain leaves out as implied — Adjacent(w, u_min), and an
// activeness chain's Degree(w) on its last level — and the flat chain's bill
// must be the reference's less exactly those.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// refTask is transform.Task before it became append-style.
type refTask interface {
	Step(prev []oracle.Answer) (queries []oracle.Query, done bool)
}

// refRun is transform.Run for refTasks: it copies every task's queries into
// one batch per round and hands the answers back.
func refRun(r oracle.Runner, tasks ...refTask) (rounds int64, err error) {
	type slot struct {
		task refTask
		prev []oracle.Answer
		done bool
	}
	type span struct{ task, start, end int }
	slots := make([]slot, len(tasks))
	for i, t := range tasks {
		slots[i].task = t
	}
	remaining := len(slots)
	for remaining > 0 {
		var batch []oracle.Query
		var spans []span
		for i := range slots {
			s := &slots[i]
			if s.done {
				continue
			}
			qs, done := s.task.Step(s.prev)
			s.prev = nil
			if done {
				s.done = true
				remaining--
				continue
			}
			start := len(batch)
			batch = append(batch, qs...)
			spans = append(spans, span{i, start, len(batch)})
		}
		if len(batch) == 0 {
			continue
		}
		answers, err := r.Round(batch)
		if err != nil {
			return rounds, err
		}
		rounds++
		for _, sp := range spans {
			slots[sp.task].prev = answers[sp.start:sp.end]
		}
	}
	return rounds, nil
}

// refTuple is an ordered t-clique ⃗T in some R_t together with the degree
// bookkeeping d[R_t]: dg(⃗T) is the degree of ⃗T's minimum-degree vertex.
type refTuple struct {
	verts  []int64
	degs   []int64
	minPos int // index of the minimum-degree vertex
}

func refNewTuple(verts []int64, degs []int64) refTuple {
	t := refTuple{verts: verts, degs: degs}
	for i := range degs {
		if degs[i] < degs[t.minPos] {
			t.minPos = i
		}
	}
	return t
}

// dg returns dg(⃗T) = min_v∈⃗T deg(v).
func (t refTuple) dg() int64 { return t.degs[t.minPos] }

// extend returns the (t+1)-tuple (⃗T, w).
func (t refTuple) extend(w, wdeg int64) refTuple {
	verts := make([]int64, len(t.verts)+1)
	copy(verts, t.verts)
	verts[len(t.verts)] = w
	degs := make([]int64, len(t.degs)+1)
	copy(degs, t.degs)
	degs[len(t.degs)] = wdeg
	return refNewTuple(verts, degs)
}

func (t refTuple) contains(v int64) bool {
	for _, u := range t.verts {
		if u == v {
			return true
		}
	}
	return false
}

// refLevelChain iteratively builds R_{t+1} from R_t via the two-pass StreamSet
// procedure (Algorithm 4): one round of random-neighbor queries, one round
// of clique checks. It is shared by the main invocation chains (Algorithm 3)
// and the activeness chains (Algorithm 18), which differ only in their
// initial set, ω̃ seed, and abort rule.
type refLevelChain struct {
	params Params
	rng    *rand.Rand
	m      int64

	tuples []refTuple // current R_t
	t      int        // current level: tuples are ordered t-cliques
	omega  float64    // ω̃_t
	gamma  float64    // the (1-γ) decay of the ω̃ recurrence

	// Products for the estimator: Π dg(R_t) and Π s_{t+1} over processed
	// levels.
	dgProd float64
	sProd  float64

	aborted bool
	// maxState tracks the largest Σ|R_t| the chain ever held, for space
	// accounting.
	maxState int64

	// voteOnly marks an activeness chain; implied tallies the check queries
	// the flat chain does not ask.
	voteOnly bool
	implied  *int64

	// per-round scratch
	pendingTuple []int   // index into tuples for each sample
	pendingW     []int64 // neighbor answers
	pendingOK    []bool
	nextTuples   []refTuple
}

// refNewLevelChain starts a chain at level t with the given R_t and ω̃_t seed.
func refNewLevelChain(p Params, rng *rand.Rand, m int64, t int, init []refTuple, omega, gamma float64) *refLevelChain {
	return &refLevelChain{
		params: p, rng: rng, m: m,
		tuples: init, t: t, omega: omega, gamma: gamma,
		dgProd: 1, sProd: 1,
	}
}

// done reports whether the chain has reached R_r (or aborted / died out).
func (c *refLevelChain) done() bool {
	return c.aborted || c.t >= c.params.R || len(c.tuples) == 0
}

// dgRt returns dg(R_t) = Σ_⃗T dg(⃗T).
func (c *refLevelChain) dgRt() int64 {
	var sum int64
	for _, t := range c.tuples {
		sum += t.dg()
	}
	return sum
}

// nextSampleCount computes s_{t+1} = ⌈dg(R_t)·τ_{t+1}/ω̃_t · SampleC⌉.
func (c *refLevelChain) nextSampleCount(dgRt int64) int64 {
	s := float64(dgRt) * c.params.tau(c.t+1) / c.omega * c.params.SampleC
	n := int64(s)
	if float64(n) < s {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// neighborQueries starts the next level: it samples s_{t+1} tuples
// proportionally to dg(⃗T) and returns one Neighbor query per sample (a
// uniformly random neighbor of the tuple's minimum-degree vertex). It
// returns nil when the chain is done or the level aborts.
func (c *refLevelChain) neighborQueries() []oracle.Query {
	if c.done() {
		return nil
	}
	dgRt := c.dgRt()
	if dgRt == 0 {
		c.tuples = nil
		return nil
	}
	s := c.nextSampleCount(dgRt)
	if s > c.params.MaxLevelSamples {
		c.aborted = true
		return nil
	}
	// ω̃_{t+1} = (1-γ)·ω̃_t·s_{t+1}/dg(R_t); estimator products likewise.
	c.dgProd *= float64(dgRt)
	c.sProd *= float64(s)
	c.omega = (1 - c.gamma) * c.omega * float64(s) / float64(dgRt)

	// Sample tuples proportionally to dg(⃗T) via prefix sums.
	prefix := make([]int64, len(c.tuples)+1)
	for i, t := range c.tuples {
		prefix[i+1] = prefix[i] + t.dg()
	}
	queries := make([]oracle.Query, s)
	c.pendingTuple = make([]int, s)
	for ell := int64(0); ell < s; ell++ {
		x := c.rng.Int63n(dgRt)
		// Binary search for the owning tuple.
		lo, hi := 0, len(c.tuples)
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if prefix[mid] <= x {
				lo = mid
			} else {
				hi = mid
			}
		}
		tu := c.tuples[lo]
		c.pendingTuple[ell] = lo
		u := tu.verts[tu.minPos]
		// Uniform j ∈ [deg(u)]: exactly uniform random neighbor under the
		// insertion-only emulation (and the direct oracle).
		queries[ell] = oracle.Query{Type: oracle.Neighbor, U: u, I: c.rng.Int63n(tu.dg()) + 1}
	}
	return queries
}

// checkQueries consumes the neighbor answers and returns the clique-check
// round: Adjacent(w, x) for every x ∈ ⃗T plus Degree(w).
func (c *refLevelChain) checkQueries(nbrs []oracle.Answer) []oracle.Query {
	var queries []oracle.Query
	c.pendingW = make([]int64, len(nbrs))
	c.pendingOK = make([]bool, len(nbrs))
	for ell, a := range nbrs {
		tu := c.tuples[c.pendingTuple[ell]]
		if !a.OK || tu.contains(a.Count) {
			continue
		}
		w := a.Count
		c.pendingW[ell] = w
		c.pendingOK[ell] = true
		for _, x := range tu.verts {
			queries = append(queries, oracle.Query{Type: oracle.Adjacent, U: w, V: x})
		}
		queries = append(queries, oracle.Query{Type: oracle.Degree, U: w})
		// w was drawn from the tuple's minimum-degree vertex, and a vote
		// reads nothing of R_r but its size.
		*c.implied++
		if c.voteOnly && c.t+1 == c.params.R {
			*c.implied++
		}
	}
	return queries
}

// finishLevel consumes the check answers and installs R_{t+1}.
func (c *refLevelChain) finishLevel(checks []oracle.Answer) {
	c.nextTuples = c.nextTuples[:0]
	pos := 0
	for ell := range c.pendingW {
		if !c.pendingOK[ell] {
			continue
		}
		tu := c.tuples[c.pendingTuple[ell]]
		allAdj := true
		for range tu.verts {
			if !checks[pos].Yes {
				allAdj = false
			}
			pos++
		}
		wdeg := checks[pos].Count
		pos++
		if allAdj {
			c.nextTuples = append(c.nextTuples, tu.extend(c.pendingW[ell], wdeg))
		}
	}
	c.tuples = append([]refTuple(nil), c.nextTuples...)
	c.t++
	var state int64
	for _, t := range c.tuples {
		state += int64(2 * len(t.verts))
	}
	if state > c.maxState {
		c.maxState = state
	}
	c.pendingTuple, c.pendingW, c.pendingOK = nil, nil, nil
}

// refChainTask runs a refLevelChain to completion as a refTask, alternating
// neighbor rounds (Algorithm 4 pass 1) and check rounds (pass 2).
type refChainTask struct {
	chain *refLevelChain
	state int // 0: at a level boundary; 1: awaiting neighbor answers; 2: awaiting check answers
}

func (ct *refChainTask) Step(prev []oracle.Answer) ([]oracle.Query, bool) {
	for {
		switch ct.state {
		case 0:
			qs := ct.chain.neighborQueries()
			if qs == nil {
				return nil, true
			}
			ct.state = 1
			return qs, false
		case 1:
			qs := ct.chain.checkQueries(prev)
			if len(qs) == 0 {
				// No surviving samples this level; finish it immediately.
				ct.chain.finishLevel(nil)
				ct.state = 0
				prev = nil
				continue
			}
			ct.state = 2
			return qs, false
		default: // 2
			ct.chain.finishLevel(prev)
			ct.state = 0
			prev = nil
			continue
		}
	}
}

// refInvocation is one outer invocation of StreamApproxClique
// (Algorithm 3): sample R_2, learn its degrees, then run the level chain up
// to R_r.
type refInvocation struct {
	p     Params
	rng   *rand.Rand
	m     int64
	gamma float64

	state   int
	s2      int64
	omega1  float64
	pairs   [][2]int64 // oriented sampled edges
	verts   []int64    // unique vertices of pairs
	chain   *refChainTask
	aborted bool
	implied *int64
}

func refNewInvocation(p Params, rng *rand.Rand, m int64, implied *int64) *refInvocation {
	return &refInvocation{
		p: p, rng: rng, m: m, implied: implied,
		gamma:  p.Eps / (2 * float64(p.R)),
		omega1: (1 - p.Eps/2) * p.L,
	}
}

func (iv *refInvocation) Step(prev []oracle.Answer) ([]oracle.Query, bool) {
	switch iv.state {
	case 0:
		// s_2 = ⌈dg(R_1)·τ_2/ω̃_1 · SampleC⌉ with R_1 = E (dg(R_1) = 2m
		// counting both orientations).
		s2f := float64(2*iv.m) * iv.p.tau(2) / iv.omega1 * iv.p.SampleC
		iv.s2 = int64(s2f)
		if float64(iv.s2) < s2f {
			iv.s2++
		}
		if iv.s2 < 1 {
			iv.s2 = 1
		}
		if iv.s2 > iv.p.MaxLevelSamples {
			iv.aborted = true
			return nil, true
		}
		qs := make([]oracle.Query, iv.s2)
		for i := range qs {
			qs[i] = oracle.Query{Type: oracle.RandomEdge}
		}
		iv.state = 1
		return qs, false
	case 1:
		seen := make(map[int64]bool)
		for _, a := range prev {
			if !a.OK {
				continue
			}
			u, v := a.Edge.U, a.Edge.V
			if iv.rng.Intn(2) == 0 {
				u, v = v, u
			}
			iv.pairs = append(iv.pairs, [2]int64{u, v})
			for _, x := range []int64{u, v} {
				if !seen[x] {
					seen[x] = true
					iv.verts = append(iv.verts, x)
				}
			}
		}
		if len(iv.pairs) == 0 {
			return nil, true
		}
		qs := make([]oracle.Query, len(iv.verts))
		for i, v := range iv.verts {
			qs[i] = oracle.Query{Type: oracle.Degree, U: v}
		}
		iv.state = 2
		return qs, false
	case 2:
		deg := make(map[int64]int64, len(iv.verts))
		for i, v := range iv.verts {
			deg[v] = prev[i].Count
		}
		tuples := make([]refTuple, len(iv.pairs))
		for i, pr := range iv.pairs {
			tuples[i] = refNewTuple([]int64{pr[0], pr[1]}, []int64{deg[pr[0]], deg[pr[1]]})
		}
		// ω̃_2 = (1-γ)·ω̃_1·s_2/dg(R_1).
		omega2 := (1 - iv.gamma) * iv.omega1 * float64(iv.s2) / float64(2*iv.m)
		lc := refNewLevelChain(iv.p, iv.rng, iv.m, 2, tuples, omega2, iv.gamma)
		lc.implied = iv.implied
		iv.chain = &refChainTask{chain: lc}
		iv.state = 3
		// The parent returned iv.chain.Step(nil) here, losing an abort on the
		// chain's first step (ISSUE 18's bug); the reference carries the fix.
		prev = nil
		fallthrough
	default:
		qs, done := iv.chain.Step(prev)
		if done {
			iv.aborted = iv.chain.chain.aborted
			return nil, true
		}
		return qs, false
	}
}

// refActTask is one repetition ℓ of an activeness check StrAct(i, ⃗I, …)
// (Algorithm 18): a level chain seeded with R_i = {⃗I}.
type refActTask struct {
	chain *refChainTask
	level int
	tauI  float64
	p     Params
}

func refNewActTask(p Params, rng *rand.Rand, m int64, prefix refTuple, implied *int64) *refActTask {
	r := float64(p.R)
	gammaAct := p.Eps / (8 * r * factorial(p.R))
	level := len(prefix.verts)
	omega := (1 - p.Eps/2) * p.tau(level)
	lc := refNewLevelChain(p, rng, m, level, []refTuple{prefix}, omega, gammaAct)
	lc.voteOnly, lc.implied = true, implied
	return &refActTask{chain: &refChainTask{chain: lc}, level: level, tauI: p.tau(level), p: p}
}

func (at *refActTask) Step(prev []oracle.Answer) ([]oracle.Query, bool) {
	return at.chain.Step(prev)
}

// vote returns χ_ℓ: 1 when ĉ_r(⃗I) = (Π dg)/(Π s)·|R_r| is at most τ_i/4
// and the chain did not hit the cutoff.
func (at *refActTask) vote() bool {
	lc := at.chain.chain
	if lc.aborted {
		return false
	}
	cHat := lc.dgProd / lc.sProd * float64(len(lc.tuples))
	return cHat <= at.tauI/4
}

// referenceCount returns the reference's Result and the number of check
// queries it asked that the flat chain deems implied.
func referenceCount(r oracle.Runner, p Params, rng *rand.Rand, activeOverride func([]int64) bool) (*Result, int64, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	var implied int64
	res := &Result{}

	// Pass 1: count edges (Algorithm 3 pass 1).
	a, err := r.Round([]oracle.Query{{Type: oracle.CountEdges}})
	if err != nil {
		return nil, 0, err
	}
	m := a[0].Count
	res.M = m
	if m == 0 {
		res.Estimate = 0
		res.Rounds = r.Rounds()
		return res, 0, nil
	}

	// Phase 1: q parallel invocations build their R_r chains.
	invs := make([]*refInvocation, p.Q)
	tasks := make([]refTask, p.Q)
	for j := range invs {
		invs[j] = refNewInvocation(p, rng, m, &implied)
		tasks[j] = invs[j]
	}
	if _, err := refRun(r, tasks...); err != nil {
		return nil, 0, err
	}

	// Phase 2: build the assignment jobs for every invocation and run all
	// their activeness chains in parallel rounds (StrIsAssigned/StrAct run
	// under a single "parallel for" in the paper).
	jobs := make([]*refAssignJob, p.Q)
	var actTasks []refTask
	for j, iv := range invs {
		var rr []refTuple
		if !iv.aborted && iv.chain != nil {
			rr = iv.chain.chain.tuples
			if iv.chain.chain.maxState > res.MaxChainState {
				res.MaxChainState = iv.chain.chain.maxState
			}
		}
		jobs[j] = refNewAssignJob(p, rng, m, rr, activeOverride, &implied)
		actTasks = append(actTasks, jobs[j].tasks()...)
	}
	if len(actTasks) > 0 {
		if _, err := refRun(r, actTasks...); err != nil {
			return nil, 0, err
		}
	}

	// Phase 3 (offline): per-invocation estimates and the median combine.
	for j, iv := range invs {
		res.S2Sizes = append(res.S2Sizes, iv.s2)
		if iv.aborted {
			res.Aborted++
			res.PerInvocation = append(res.PerInvocation, 0)
			res.RrSizes = append(res.RrSizes, 0)
			continue
		}
		assignedCount := jobs[j].assignedCount()
		rrLen := len(jobs[j].rr)
		res.RrSizes = append(res.RrSizes, rrLen)
		est := 0.0
		if rrLen > 0 && iv.chain != nil {
			lc := iv.chain.chain
			est = float64(2*m) / float64(iv.s2) * lc.dgProd / lc.sProd * float64(assignedCount)
		}
		res.PerInvocation = append(res.PerInvocation, est)
	}

	res.Estimate = median(res.PerInvocation)
	res.Rounds = r.Rounds()
	return res, implied, nil
}

// refAssignJob holds one invocation's assignment work: the activeness groups
// for every prefix of every ordering of every distinct clique in its R_r
// (StrIsAssigned, Algorithm 17). Cliques and prefix groups are visited in
// first-seen order (never map order): the activeness chains share the
// invocation's RNG, so a nondeterministic visit order would reshuffle the
// draw sequence and break the engine's fixed-seed reproducibility.
type refAssignJob struct {
	p           Params
	rr          []refTuple
	cliques     map[string][]int64 // clique key -> sorted vertices
	cliqueOrder []string           // deterministic iteration order
	groups      map[string][]*refActTask
	groupOrder  []string // deterministic iteration order
	override    func([]int64) bool
	active      map[string]bool
}

func refNewAssignJob(p Params, rng *rand.Rand, m int64, rr []refTuple, override func([]int64) bool, implied *int64) *refAssignJob {
	j := &refAssignJob{
		p: p, rr: rr,
		cliques:  make(map[string][]int64),
		groups:   make(map[string][]*refActTask),
		override: override,
		active:   make(map[string]bool),
	}
	deg := make(map[int64]int64)
	for _, t := range rr {
		for i, v := range t.verts {
			deg[v] = t.degs[i]
		}
	}
	for _, t := range rr {
		k := refCliqueKey(t.verts)
		if _, ok := j.cliques[k]; ok {
			continue
		}
		s := append([]int64(nil), t.verts...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		j.cliques[k] = s
		j.cliqueOrder = append(j.cliqueOrder, k)
	}
	for _, ck := range j.cliqueOrder {
		refForEachPermutation(j.cliques[ck], func(perm []int64) {
			for i := 2; i < p.R; i++ {
				pk := refPrefixKey(perm[:i])
				if override != nil {
					if _, ok := j.active[pk]; !ok {
						j.active[pk] = override(perm[:i])
					}
					continue
				}
				if _, ok := j.groups[pk]; ok {
					continue
				}
				gdegs := make([]int64, i)
				for x := 0; x < i; x++ {
					gdegs[x] = deg[perm[x]]
				}
				prefix := refNewTuple(append([]int64(nil), perm[:i]...), gdegs)
				reps := make([]*refActTask, p.QAct)
				for rep := 0; rep < p.QAct; rep++ {
					reps[rep] = refNewActTask(p, rng, m, prefix, implied)
				}
				j.groups[pk] = reps
				j.groupOrder = append(j.groupOrder, pk)
			}
		})
	}
	return j
}

// tasks returns the activeness chains to run (empty when overridden).
func (j *refAssignJob) tasks() []refTask {
	var ts []refTask
	for _, pk := range j.groupOrder {
		for _, at := range j.groups[pk] {
			ts = append(ts, at)
		}
	}
	return ts
}

// assignedCount finalizes activeness votes and counts the assigned tuples
// of R_r: a tuple is assigned iff it is the lexicographically first ordering
// of its clique whose every prefix (lengths 2..r-1) is active (Algorithm
// 15's semantics; see DESIGN.md on the Algorithm 17 discrepancy).
func (j *refAssignJob) assignedCount() int64 {
	for pk, reps := range j.groups {
		votes := 0
		for _, at := range reps {
			if at.vote() {
				votes++
			}
		}
		j.active[pk] = votes*2 >= len(reps)
	}
	assignedOrder := make(map[string][]int64)
	for k, sorted := range j.cliques {
		var winner []int64
		refForEachPermutationUntil(sorted, func(perm []int64) bool {
			for i := 2; i < j.p.R; i++ {
				if !j.active[refPrefixKey(perm[:i])] {
					return false
				}
			}
			winner = append([]int64(nil), perm...)
			return true // permutations arrive in lex order
		})
		assignedOrder[k] = winner
	}
	var count int64
	for _, t := range j.rr {
		if w := assignedOrder[refCliqueKey(t.verts)]; w != nil && refEqualInt64(w, t.verts) {
			count++
		}
	}
	return count
}

func refCliqueKey(vs []int64) string {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return fmt.Sprint(s)
}

func refPrefixKey(pfx []int64) string { return fmt.Sprint(pfx) }

func refEqualInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refForEachPermutation visits all permutations of sorted in lexicographic
// order.
func refForEachPermutation(sorted []int64, fn func(perm []int64)) {
	refForEachPermutationUntil(sorted, func(p []int64) bool { fn(p); return false })
}

// refForEachPermutationUntil visits permutations of the (ascending) input in
// lexicographic order until fn returns true. fn must not retain perm.
func refForEachPermutationUntil(sorted []int64, fn func(perm []int64) bool) {
	n := len(sorted)
	perm := make([]int64, n)
	used := make([]bool, n)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			return fn(perm)
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm[k] = sorted[i]
			stop := rec(k + 1)
			used[i] = false
			if stop {
				return true
			}
		}
		return false
	}
	rec(0)
}

// refCase is one input of the equivalence matrix.
type refCase struct {
	name     string
	g        *graph.Graph
	p        Params
	override bool // CountWithActiveness under the exact activeness rule
	// check looks at the reference's result: a case exists to exercise some
	// path of the chain, and says so here.
	check func(res *Result) bool
}

func refCases() []refCase {
	lam := func(g *graph.Graph) int64 { l, _ := graph.Degeneracy(g); return l }
	k3 := baWithCliques(21, 90, 3, 3, 12)
	k4 := baWithCliques(22, 60, 2, 4, 6)
	sparse := gen.PlantCliques(rand.New(rand.NewSource(23)), gen.Grid(7, 7), 3, 2)
	any := func(*Result) bool { return true }
	return []refCase{
		{"K3", k3, Params{R: 3, Lambda: lam(k3), Eps: 0.4, L: 20, Q: 3, QAct: 5, SampleC: 2}, false, any},
		{"K4", k4, Params{R: 4, Lambda: lam(k4), Eps: 0.4, L: 6, Q: 3, QAct: 3, TauC: 1, SampleC: 2}, false, any},
		{"K3 exact activeness", k3, Params{R: 3, Lambda: lam(k3), Eps: 0.4, L: 20, Q: 3, SampleC: 2}, true, any},
		{"K4 exact activeness", k4, Params{R: 4, Lambda: lam(k4), Eps: 0.4, L: 6, Q: 3, TauC: 1, SampleC: 2}, true, any},
		// Nearly triangle-free: some invocations' R_3 comes out empty.
		{"K3 chains die out", sparse, Params{R: 3, Lambda: lam(sparse), Eps: 0.4, L: 2, Q: 5, QAct: 3, SampleC: 0.05}, false,
			func(res *Result) bool { return slices.Contains(res.RrSizes, 0) && res.Aborted == 0 }},
		// An understated λ makes the sample sizes grow with the level, and a
		// cap inside the spread of the later ones makes some invocations
		// abort there while the others reach R_4.
		{"K4 some abort", k4, Params{R: 4, Lambda: 1, Eps: 0.4, L: 6, Q: 5, QAct: 3, TauC: 1, SampleC: 2, MaxLevelSamples: 825}, false,
			func(res *Result) bool { return res.Aborted > 0 && res.Aborted < len(res.PerInvocation) }},
	}
}

// sameResult compares two results field for field, bit for bit.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Estimate != want.Estimate || got.Aborted != want.Aborted || got.M != want.M || got.Rounds != want.Rounds ||
		got.MaxChainState != want.MaxChainState || !slices.Equal(got.PerInvocation, want.PerInvocation) ||
		!slices.Equal(got.RrSizes, want.RrSizes) || !slices.Equal(got.S2Sizes, want.S2Sizes) {
		t.Errorf("%s:\n got %+v\nwant %+v", label, *got, *want)
	}
}

// countFn runs a count and returns, besides its Result, the number of
// queries it asked that the flat chain deems implied.
type countFn func(r oracle.Runner, p Params, rng *rand.Rand, active func([]int64) bool) (*Result, int64, error)

// flatCount is countImpl as a countFn: it asks nothing implied.
func flatCount(r oracle.Runner, p Params, rng *rand.Rand, active func([]int64) bool) (*Result, int64, error) {
	res, err := countImpl(r, p, rng, active)
	return res, 0, err
}

// counted is what one run leaves behind: the result, the runner's bill and
// the implied queries in it.
type counted struct {
	res                     *Result
	queries, space, implied int64
}

func runCount(t *testing.T, count countFn, r oracle.Runner, p Params, rng *rand.Rand, active func([]int64) bool) counted {
	t.Helper()
	res, implied, err := count(r, p, rng, active)
	if err != nil {
		t.Fatal(err)
	}
	return counted{res, r.Queries(), r.SpaceWords(), implied}
}

// sameCounted requires got's result to equal want's bit for bit, and got's
// bill to be want's less the queries want deems implied, at wordsPer words
// of space each: a Degree or Adjacent query is one word on a streaming
// runner and none on the direct oracle.
func sameCounted(t *testing.T, label string, got, want counted, wordsPer int64) {
	t.Helper()
	sameResult(t, label, got.res, want.res)
	wantQ, wantS := want.queries-want.implied, want.space-wordsPer*want.implied
	if got.queries != wantQ || got.space != wantS {
		t.Errorf("%s: %d queries, %d space words, want %d, %d (reference %d, %d less %d implied)",
			label, got.queries, got.space, wantQ, wantS, want.queries, want.space, want.implied)
	}
}

// TestCountMatchesReference runs the flat chain against the reference over
// R ∈ {3, 4}, eight seeds, the direct oracle and the insertion runner, fresh
// and recycled from a dirtied pool.
func TestCountMatchesReference(t *testing.T) {
	defer pool.SetDebug(pool.SetDebug(pool.DebugOff))
	for _, c := range refCases() {
		var active func([]int64) bool
		if c.override {
			active = exactActiveness(c.g, mustDefaults(t, c.p))
		}
		covered := false
		for seed := int64(1); seed <= 8; seed++ {
			label := fmt.Sprintf("%s, seed %d", c.name, seed)
			direct := func(count countFn) counted {
				rng := rand.New(rand.NewSource(seed))
				return runCount(t, count, oracle.NewDirect(c.g, oracle.Augmented, rng), c.p, rng, active)
			}
			want := direct(referenceCount)
			sameCounted(t, label+", direct", direct(flatCount), want, 0)
			covered = covered || c.check(want.res)

			st := stream.Shuffled(stream.FromGraph(c.g), rand.New(rand.NewSource(seed+100)))
			streaming := func(count countFn, pooled bool) counted {
				rng := rand.New(rand.NewSource(seed))
				if !pooled {
					r, err := transform.NewInsertionRunner(st, rng)
					if err != nil {
						t.Fatal(err)
					}
					return runCount(t, count, r, c.p, rng, active)
				}
				defer pool.SetDebug(pool.SetDebug(pool.DebugDirty))
				r, err := transform.AcquireInsertionRunner(st, rng)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Release()
				return runCount(t, count, r, c.p, rng, active)
			}
			want = streaming(referenceCount, false)
			covered = covered || c.check(want.res)
			sameCounted(t, label+", fresh", streaming(flatCount, false), want, 1)
			sameCounted(t, label+", pooled dirty", streaming(flatCount, true), want, 1)
		}
		if !covered {
			t.Errorf("%s: no seed exercised what the case is for", c.name)
		}
	}
}
