package ers

import (
	"math/rand"
	"slices"

	"streamcount/internal/oracle"
)

// chainEnv is what the level chains of one phase share: the parameters, the
// RNG every chain draws from in task order, the ω̃ decay, whether the phase
// only votes, the arena their level arrays and pending samples are cut from,
// and the scratch a single Step uses and leaves. The activeness phase's env
// also holds what its assignment jobs are built in. An env lives in a
// countScratch and keeps all of its buffers from one count to the next.
type chainEnv struct {
	p     Params
	rng   *rand.Rand
	gamma float64 // the (1-γ) decay of the ω̃ recurrence
	// voteOnly marks the activeness phase: its chains are read only through
	// vote, which needs |R_r| but no tuple of it, so the last level asks no
	// Degree(w) and keeps a count instead of R_r.
	voteOnly bool
	arena    arena

	prefix       []int64 // neighborQueries: prefix sums of dg(⃗T) over R_t
	nextV, nextD []int64 // finishLevel: R_{t+1} before it is cut to size

	// numbers is the numbering scratch: an invocation's R_2 vertices, or an
	// assignment job's cliques and then its prefixes.
	numbers tupleTable
	// jobs[:njobs] are the assignment jobs built since the scratch was
	// reset, in invocation order; the slots beyond keep their arrays for the
	// next count. chains is the slab every job's activeness chains are cut
	// from.
	jobs   []assignJob
	njobs  int
	chains []levelChain
	// ord, vs and ds hold one permutation and one tuple while a job is
	// numbered; ord also while it is counted.
	ord    []int
	vs, ds []int64
}

// arena hands out int64 scratch cut from one chunk: the tens of thousands
// of activeness chains of one count need a few words each, which as separate
// slices were most of the count's allocations. Between two rewinds no word is
// handed out twice. A chunk that runs out is replaced by one twice the words
// handed out since the rewind, and the words already cut stay where they
// are; rewind keeps the newest chunk, so the arena soon holds a chunk that
// serves a whole count, and a count that asks no more than the last one
// allocates nothing.
type arena struct {
	chunk []int64
	used  int // chunk[:used] is handed out
	total int // words handed out since the rewind, in every chunk
}

// arenaChunk is the smallest chunk, in words.
const arenaChunk = 1 << 13

// take returns n zeroed words that no one else holds until the next rewind.
func (a *arena) take(n int) []int64 {
	s := a.cut(n)
	clear(s)
	return s
}

func (a *arena) clone(src []int64) []int64 {
	dst := a.cut(len(src))
	copy(dst, src)
	return dst
}

// cut returns n words that no one else holds, as they were left.
func (a *arena) cut(n int) []int64 {
	if n > len(a.chunk)-a.used {
		a.chunk, a.used = make([]int64, max(n, 2*a.total, arenaChunk)), 0
	}
	s := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	a.total += n
	return s
}

// rewind takes back every word handed out; they must no longer be read.
func (a *arena) rewind() { a.used, a.total = 0, 0 }

// levelChain iteratively builds R_{t+1} from R_t via the two-pass StreamSet
// procedure (Algorithm 4): one round of random-neighbor queries, one round
// of clique checks. It is shared by the main invocation chains (Algorithm 3)
// and the activeness chains (Algorithm 18), which differ only in their
// initial set, ω̃ seed, and decay.
//
// R_t is flat: every tuple of a level is an ordered t-clique, so tuple i is
// verts[i*t:(i+1)*t] with its vertices' degrees (the bookkeeping d[R_t]) at
// the same positions of degs, and dg(⃗T) is the smallest of them. The chain
// never writes into verts or degs — finishLevel installs new arrays — so
// the repetitions of one activeness check share their seed tuple. A chain is
// a plain value: the activeness phase cuts every job's chains from one slab
// and hands transform.Run pointers into it, and the slab serves the next
// count too, as start overwrites every field.
type levelChain struct {
	env *chainEnv

	t           int     // current level: tuples are ordered t-cliques
	n           int     // |R_t|
	verts, degs []int64 // current R_t, stride t; nil on a vote-only chain's R_r
	omega       float64 // ω̃_t

	// Products for the estimator: Π dg(R_t) and Π s_{t+1} over processed
	// levels.
	dgProd, sProd float64

	aborted bool
	// state is what the next Step starts with: 0 a level's neighbor round,
	// 1 the neighbor answers, 2 the check answers.
	state int8
	// maxState tracks the largest Σ|R_t| the chain ever held, for space
	// accounting.
	maxState int64

	// pend carries a level's samples from round to round as (tuple index,
	// w) pairs: neighborQueries fills the indices of all s_{t+1} samples,
	// checkQueries keeps the pairs whose neighbor answer w survived.
	pend []int64
}

// start arms the chain at level t with the given R_t and ω̃_t seed.
func (c *levelChain) start(env *chainEnv, t int, verts, degs []int64, omega float64) {
	*c = levelChain{env: env, t: t, n: len(verts) / t, verts: verts, degs: degs, omega: omega, dgProd: 1, sProd: 1}
}

// size returns |R_t|.
func (c *levelChain) size() int { return c.n }

// done reports whether the chain has reached R_r (or aborted / died out).
func (c *levelChain) done() bool {
	return c.aborted || c.t >= c.env.p.R || c.n == 0
}

// lastVote reports whether the level being built is a vote-only chain's R_r.
func (c *levelChain) lastVote() bool {
	return c.env.voteOnly && c.t+1 == c.env.p.R
}

// nextSampleCount computes s_{t+1} = ⌈dg(R_t)·τ_{t+1}/ω̃_t · SampleC⌉.
func (c *levelChain) nextSampleCount(dgRt int64) int64 {
	p := &c.env.p
	s := float64(dgRt) * p.tau(c.t+1) / c.omega * p.SampleC
	n := int64(s)
	if float64(n) < s {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// minPos returns the index of the first minimum-degree vertex of a tuple.
func minPos(degs []int64) int {
	m := 0
	for i, d := range degs {
		if d < degs[m] {
			m = i
		}
	}
	return m
}

// neighborQueries starts the next level: it samples s_{t+1} tuples
// proportionally to dg(⃗T) and appends one Neighbor query per sample (a
// uniformly random neighbor of the tuple's minimum-degree vertex). It
// appends nothing when the chain is done or the level aborts.
func (c *levelChain) neighborQueries(dst []oracle.Query) []oracle.Query {
	if c.done() {
		return dst
	}
	env, t, n := c.env, c.t, c.n
	// Prefix sums of dg(⃗T), to sample tuples proportionally to it; the last
	// one is dg(R_t) = Σ_⃗T dg(⃗T).
	prefix := reserve(env.prefix[:0], n+1)[:n+1]
	env.prefix = prefix
	prefix[0] = 0
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + slices.Min(c.degs[i*t:(i+1)*t])
	}
	dgRt := prefix[n]
	if dgRt == 0 {
		c.n, c.verts, c.degs = 0, nil, nil
		return dst
	}
	s := c.nextSampleCount(dgRt)
	if s > env.p.MaxLevelSamples {
		c.aborted = true
		return dst
	}
	// ω̃_{t+1} = (1-γ)·ω̃_t·s_{t+1}/dg(R_t); estimator products likewise.
	c.dgProd *= float64(dgRt)
	c.sProd *= float64(s)
	c.omega = (1 - env.gamma) * c.omega * float64(s) / float64(dgRt)

	c.pend = env.arena.take(2 * int(s))
	for ell := 0; ell < int(s); ell++ {
		x := env.rng.Int63n(dgRt)
		// Binary search for the owning tuple.
		lo, hi := 0, n
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if prefix[mid] <= x {
				lo = mid
			} else {
				hi = mid
			}
		}
		c.pend[2*ell] = int64(lo)
		degs := c.degs[lo*t : (lo+1)*t]
		mp := minPos(degs)
		// Uniform j ∈ [deg(u)]: exactly uniform random neighbor under the
		// insertion-only emulation (and the direct oracle).
		dst = append(dst, oracle.Query{Type: oracle.Neighbor, U: c.verts[lo*t+mp], I: env.rng.Int63n(degs[mp]) + 1})
	}
	return dst
}

// checkQueries consumes the neighbor answers and appends the clique-check
// round for every sample whose answer w is a vertex outside its tuple:
// Adjacent(w, x) for every x ∈ ⃗T but the u_min w was drawn from — a
// neighbor answer is adjacent to its vertex on every augmented runner — plus
// Degree(w) unless the level is a vote-only chain's R_r. A kept sample asks
// at least one query, as t >= 2.
func (c *levelChain) checkQueries(nbrs []oracle.Answer, dst []oracle.Query) []oracle.Query {
	t, kept := c.t, 0
	wantDeg := !c.lastVote()
	for ell, a := range nbrs {
		i := c.pend[2*ell]
		tu := c.verts[int(i)*t : (int(i)+1)*t]
		if !a.OK || slices.Contains(tu, a.Count) {
			continue
		}
		w := a.Count
		// kept <= ell, and sample ell's index has been read: the pairs are
		// compacted in place.
		c.pend[2*kept], c.pend[2*kept+1] = i, w
		kept++
		mp := minPos(c.degs[int(i)*t : (int(i)+1)*t])
		for x, v := range tu {
			if x != mp {
				dst = append(dst, oracle.Query{Type: oracle.Adjacent, U: w, V: v})
			}
		}
		if wantDeg {
			dst = append(dst, oracle.Query{Type: oracle.Degree, U: w})
		}
	}
	c.pend = c.pend[:2*kept]
	return dst
}

// finishLevel consumes the check answers and installs R_{t+1}: (⃗T, w) for
// every kept sample whose w is adjacent to all of ⃗T, read off the t-1
// adjacency answers checkQueries asked for it. A vote-only chain's R_r is
// only counted: nothing is built or cut from the arena.
func (c *levelChain) finishLevel(checks []oracle.Answer) {
	env, t, last := c.env, c.t, c.lastVote()
	nextV, nextD := env.nextV[:0], env.nextD[:0]
	n, pos := 0, 0
	for k := 0; k < len(c.pend); k += 2 {
		i, w := int(c.pend[k]), c.pend[k+1]
		allAdj := true
		for range t - 1 {
			if !checks[pos].Yes {
				allAdj = false
			}
			pos++
		}
		if last {
			if allAdj {
				n++
			}
			continue
		}
		wdeg := checks[pos].Count
		pos++
		if allAdj {
			nextV = append(append(nextV, c.verts[i*t:(i+1)*t]...), w)
			nextD = append(append(nextD, c.degs[i*t:(i+1)*t]...), wdeg)
		}
	}
	c.pend = nil
	c.t++
	if last {
		c.n, c.verts, c.degs = n, nil, nil
		return
	}
	env.nextV, env.nextD = nextV, nextD
	c.n = len(nextV) / c.t
	c.verts, c.degs = env.arena.clone(nextV), env.arena.clone(nextD)
	if state := int64(2 * len(c.verts)); state > c.maxState {
		c.maxState = state
	}
}

// Step implements transform.Task: the chain runs to completion alternating
// neighbor rounds (Algorithm 4 pass 1) and check rounds (pass 2).
func (c *levelChain) Step(prev []oracle.Answer, dst []oracle.Query) ([]oracle.Query, bool) {
	n := len(dst)
	if c.state == 1 {
		if dst = c.checkQueries(prev, dst); len(dst) > n {
			c.state = 2
			return dst, false
		}
		// No surviving samples this level; finish it immediately.
		prev = nil
	}
	if c.state != 0 {
		c.finishLevel(prev)
	}
	dst = c.neighborQueries(dst)
	c.state = 1
	return dst, len(dst) == n
}
