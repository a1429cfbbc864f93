package fgp

import (
	"math"
	"math/rand"

	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/sketch"
)

// trialArena is the pooled scratch of one runTrials execution: every
// per-trial slice (oriented edges, round-2 answers, vertex sets, the
// round-3 view, tuple-edge lists) is a region of a flat arena buffer, and
// every trial RNG is a reseeded slot of a persistent generator array. One
// FGP run with thousands of trials then costs O(1) allocations after the
// arena has grown once, instead of ~10 per trial; under continuous
// admission the arenas recycle across generations through trialArenaPool.
//
// prepare carves the regions for a (plan, trials) shape and fully
// re-initializes every field a trial reads, which is the reset ≡ fresh
// obligation of DESIGN.md §12: the pool-hygiene suite runs the same
// workload with pooling disabled and with recycled arenas smeared by
// dirtyArena, and requires bit-identical estimates.
type trialArena struct {
	trials []trial
	outs   []trialOutcome

	srcs []sketch.SplitMix64 // one generator per trial slot, reseeded per run
	rngs []*rand.Rand        // rngs[i] wraps &srcs[i]

	pathBuf   []directedEdge   // trials × Σk_i
	pathHdr   [][]directedEdge // trials × #cycles
	spareBuf  []directedEdge   // trials × #cycles
	starBuf   []directedEdge   // trials × Σs_j
	starHdr   [][]directedEdge // trials × #stars
	nbrBuf    []oracle.Answer  // trials × #cycles
	branchBuf []cycleBranch    // trials × #cycles
	vertsBuf  []int64          // trials × vertsCap
	degBuf    []int64          // trials × vertsCap
	adjBuf    []bool           // trials × vertsCap²
	usedBuf   []int64          // trials × pattern.N()
	seqBuf    []int64          // trials × max cycle length
	tupBuf    [][2]int64       // trials × tupleCap
	tupLocBuf [][2]int         // trials × tupleCap

	q     []oracle.Query // round assembly, reused round 1 → 2 → 3
	nrefs []nref
	spans []qspan
}

// nref locates a round-2 neighbor answer: trial t, cycle c.
type nref struct{ t, c int }

// qspan is one trial's query range within the round-3 batch.
type qspan struct{ start, end int }

var trialArenaPool = pool.New(
	func() *trialArena { return &trialArena{} },
	func(a *trialArena) {}, // prepare() re-initializes everything per run
	dirtyArena,
)

// ensureRNGs grows the generator array. rand.Rand values hold interior
// pointers into srcs, so growth rebuilds both arrays together — a stale
// Rand over a reallocated source would silently fork the draw sequence.
func (a *trialArena) ensureRNGs(n int) {
	if len(a.rngs) >= n {
		return
	}
	a.srcs = make([]sketch.SplitMix64, n)
	a.rngs = make([]*rand.Rand, n)
	// One slab, not one allocation per trial: a pool miss rebuilds the whole
	// array, and at n allocations it was most of an engine wave's count.
	slab := make([]rand.Rand, n)
	for i := range a.rngs {
		slab[i] = *rand.New(&a.srcs[i])
		a.rngs[i] = &slab[i]
	}
}

func growDE(s []directedEdge, n int) []directedEdge {
	if cap(s) < n {
		return make([]directedEdge, n)
	}
	return s[:n]
}

func growHdr(s [][]directedEdge, n int) [][]directedEdge {
	if cap(s) < n {
		return make([][]directedEdge, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// prepare carves per-trial regions for the given shape and resets every
// trial to its ready-to-construct state. All slice lengths derive from the
// plan, so a recycled arena of any prior shape is fully re-laid-out.
func (a *trialArena) prepare(pl *Plan, trials int, relaxed bool) {
	nC, nS := len(pl.ks), len(pl.stars)
	sumK, sumS, vertsCap, tupleCap, maxSeq := 0, 0, 0, sumInts(pl.stars), 0
	for _, k := range pl.ks {
		sumK += k
		vertsCap += 2*k + 2 // path endpoints + the neighbor or the spare endpoints, never both
		tupleCap += 2*k + 1
		if 2*k+1 > maxSeq {
			maxSeq = 2*k + 1
		}
	}
	for _, s := range pl.stars {
		sumS += s
		vertsCap += s + 1
		if s > maxSeq { // seq scratch doubles as the star-petal buffer
			maxSeq = s
		}
	}
	usedCap := pl.p.N()

	a.ensureRNGs(trials)
	if cap(a.trials) < trials {
		a.trials = make([]trial, trials)
	} else {
		a.trials = a.trials[:trials]
	}
	if cap(a.outs) < trials {
		a.outs = make([]trialOutcome, trials)
	} else {
		a.outs = a.outs[:trials]
	}
	clear(a.outs)
	a.pathBuf = growDE(a.pathBuf, trials*sumK)
	a.pathHdr = growHdr(a.pathHdr, trials*nC)
	a.spareBuf = growDE(a.spareBuf, trials*nC)
	a.starBuf = growDE(a.starBuf, trials*sumS)
	a.starHdr = growHdr(a.starHdr, trials*nS)
	if cap(a.nbrBuf) < trials*nC {
		a.nbrBuf = make([]oracle.Answer, trials*nC)
		a.branchBuf = make([]cycleBranch, trials*nC)
	}
	a.vertsBuf = growI64(a.vertsBuf, trials*vertsCap)
	a.degBuf = growI64(a.degBuf, trials*vertsCap)
	if cap(a.adjBuf) < trials*vertsCap*vertsCap {
		a.adjBuf = make([]bool, trials*vertsCap*vertsCap)
	}
	a.usedBuf = growI64(a.usedBuf, trials*usedCap)
	a.seqBuf = growI64(a.seqBuf, trials*maxSeq)
	if cap(a.tupBuf) < trials*tupleCap {
		a.tupBuf = make([][2]int64, trials*tupleCap)
	}
	if cap(a.tupLocBuf) < trials*tupleCap {
		a.tupLocBuf = make([][2]int, trials*tupleCap)
	}
	if cap(a.spans) < trials {
		a.spans = make([]qspan, trials)
	} else {
		a.spans = a.spans[:trials]
	}
	a.q = a.q[:0]
	a.nrefs = a.nrefs[:0]

	for t := 0; t < trials; t++ {
		tr := &a.trials[t]
		*tr = trial{rng: a.rngs[t], relaxed: relaxed}
		hdr := a.pathHdr[t*nC : (t+1)*nC]
		off := t * sumK
		for ci, k := range pl.ks {
			hdr[ci] = a.pathBuf[off : off+k : off+k]
			off += k
		}
		tr.cyclePath = hdr
		tr.cycleSpare = a.spareBuf[t*nC : (t+1)*nC : (t+1)*nC]
		shdr := a.starHdr[t*nS : (t+1)*nS]
		off = t * sumS
		for si, s := range pl.stars {
			shdr[si] = a.starBuf[off : off+s : off+s]
			off += s
		}
		tr.starEdges = shdr
		tr.neighbor = a.nbrBuf[t*nC : (t+1)*nC : (t+1)*nC]
		tr.branch = a.branchBuf[t*nC : (t+1)*nC : (t+1)*nC]
		tr.verts = a.vertsBuf[t*vertsCap : t*vertsCap : (t+1)*vertsCap]
		tr.view.deg = a.degBuf[t*vertsCap : t*vertsCap : (t+1)*vertsCap]
		tr.view.adj = a.adjBuf[t*vertsCap*vertsCap : (t+1)*vertsCap*vertsCap]
		tr.used = a.usedBuf[t*usedCap : t*usedCap : (t+1)*usedCap]
		tr.seq = a.seqBuf[t*maxSeq : t*maxSeq : (t+1)*maxSeq]
		tr.tupleEdges = a.tupBuf[t*tupleCap : t*tupleCap : (t+1)*tupleCap]
		tr.tupleLocal = a.tupLocBuf[t*tupleCap : t*tupleCap : (t+1)*tupleCap]
	}
}

func sumInts(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}

// dirtyArena smears every arena buffer with loud sentinels (pool.DebugDirty):
// an incomplete prepare or a postprocess read of an unwritten cell then
// yields wildly wrong vertices/degrees instead of coincidentally stale-but-
// plausible ones.
func dirtyArena(a *trialArena) {
	bad := directedEdge{tail: -0x6b6b6b, head: -0x6b6b6b, ok: true}
	smearDE := func(s []directedEdge) {
		s = s[:cap(s)]
		for i := range s {
			s[i] = bad
		}
	}
	smearDE(a.pathBuf)
	smearDE(a.spareBuf)
	smearDE(a.starBuf)
	nb := a.nbrBuf[:cap(a.nbrBuf)]
	for i := range nb {
		nb[i] = oracle.Answer{OK: true, Count: -0x6b6b6b}
	}
	// A stale branch must flip the decision, not repeat it: nearly every
	// real u₁ is low-degree, so the smear says high.
	br := a.branchBuf[:cap(a.branchBuf)]
	for i := range br {
		br[i] = cycleBranch{deg1: math.MaxInt64 >> 8}
	}
	pool.DirtyInt64(a.vertsBuf)
	pool.DirtyInt64(a.degBuf)
	pool.DirtyInt64(a.usedBuf)
	pool.DirtyInt64(a.seqBuf)
	adj := a.adjBuf[:cap(a.adjBuf)]
	for i := range adj {
		adj[i] = true
	}
	tb := a.tupBuf[:cap(a.tupBuf)]
	for i := range tb {
		tb[i] = [2]int64{-0x6b6b6b, -0x6b6b6b}
	}
	tl := a.tupLocBuf[:cap(a.tupLocBuf)]
	for i := range tl {
		tl[i] = [2]int{-0x6b6b6b, -0x6b6b6b}
	}
	for i := range a.srcs {
		a.srcs[i].Reseed(0xbad5eedbad5eed)
	}
	qs := a.q[:cap(a.q)]
	for i := range qs {
		qs[i] = oracle.Query{Type: oracle.Type(99), U: -0x6b6b6b, V: -0x6b6b6b, I: -0x6b6b6b}
	}
	ns := a.nrefs[:cap(a.nrefs)]
	for i := range ns {
		ns[i] = nref{t: -1, c: -1}
	}
	sp := a.spans[:cap(a.spans)]
	for i := range sp {
		sp[i] = qspan{start: -1, end: -1}
	}
	os := a.outs[:cap(a.outs)]
	for i := range os {
		os[i] = trialOutcome{copies: -0x6b6b6b}
	}
}
