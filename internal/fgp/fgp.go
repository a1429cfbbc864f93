// Package fgp implements the FGP subgraph sampler of Fichtenberger, Gao and
// Peng [FGP20] (Algorithms 6–11 of the paper) and its streaming incarnations:
// the 3-pass insertion-only algorithm of Lemma 16 / Theorem 17 and the 3-pass
// turnstile algorithm of Lemma 18 / Theorem 1.
//
// The sampler is written once against the oracle.Runner interface as a
// 3-round adaptive algorithm (Section 4 of the paper); running it on
// oracle.Direct gives the sublinear-time query algorithm, on
// transform.InsertionRunner the 3-pass insertion-only streaming algorithm
// (Theorem 9), and on transform.TurnstileRunner the 3-pass turnstile
// streaming algorithm (Theorem 11). A run takes at most Plan.Rounds rounds
// — 3, or 2 without an odd cycle — and all of them whenever a trial
// survives to the last.
//
// # Exact per-copy probability
//
// Let the decomposition of H (Lemma 4) have cycles of lengths 2k_i+1,
// i ∈ [α], and stars with s_j petals, j ∈ [β]. With m the number of edges
// and S = ⌈√(2m)⌉, one trial witnesses any fixed decomposition tuple of a
// fixed copy of H with probability exactly
//
//	W = Π_i (2m)^{-k_i}·S^{-1} · Π_j (2m)^{-s_j},
//
// matching the paper's 1/(2m)^ρ(H) up to the integral-√ rounding (see
// DESIGN.md). Each copy has exactly f_T(H) such tuples, and one sampled
// tuple may witness |D(t)| ≥ 1 copies, so the counting estimator adds
// |D(t)|/f_T(H) per successful trial, which makes it exactly unbiased:
// E[estimate] = #H.
package fgp

import (
	"fmt"
	"math"
	"math/rand"

	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/par"
	"streamcount/internal/pattern"
	"streamcount/internal/sketch"
)

// Plan precomputes the pattern-dependent constants used by every trial.
type Plan struct {
	p     *pattern.Pattern
	dec   pattern.Decomposition
	fT    int64
	cMax  int64 // computed lazily; 0 until needed
	ks    []int // k_i per cycle: cycle length = 2k+1
	stars []int // s_j petals per star
}

// NewPlan analyzes the pattern once: its optimal odd-cycle/star
// decomposition (Lemma 4) and the tuple-count f_T(H).
func NewPlan(p *pattern.Pattern) (*Plan, error) {
	dec, err := pattern.Decompose(p)
	if err != nil {
		return nil, err
	}
	pl := &Plan{p: p, dec: dec, fT: pattern.DecompositionCount(p, dec)}
	for _, c := range dec.CycleLengths() {
		pl.ks = append(pl.ks, (c-1)/2)
	}
	pl.stars = dec.StarPetals()
	if pl.fT < 1 {
		return nil, fmt.Errorf("fgp: pattern %s has no decomposition tuples", p.Name())
	}
	return pl, nil
}

// TupleCount returns f_T(H).
func (pl *Plan) TupleCount() int64 { return pl.fT }

// Rho returns ρ(H), the value of the plan's decomposition (Lemma 4), without
// decomposing H again as Pattern.Rho does.
func (pl *Plan) Rho() float64 { return float64(pl.dec.RhoHalves()) / 2 }

// Rounds returns the most rounds one run takes: 3, or 2 when the
// decomposition has no odd cycle, as round 2 only samples cycle neighbours.
func (pl *Plan) Rounds() int64 {
	if len(pl.ks) == 0 {
		return 2
	}
	return 3
}

// trialWeight returns W, the probability that one trial witnesses a fixed
// decomposition tuple, given m edges and S = ⌈√(2m)⌉.
func (pl *Plan) trialWeight(m, s int64) float64 {
	w := 1.0
	for _, k := range pl.ks {
		w *= math.Pow(float64(2*m), -float64(k)) / float64(s)
	}
	for _, sp := range pl.stars {
		w *= math.Pow(float64(2*m), -float64(sp))
	}
	return w
}

// directedEdge is a sampled edge with an orientation chosen by a fair coin,
// so each of the 2m directed edges has probability 1/(2m).
type directedEdge struct {
	tail, head int64
	ok         bool
}

// trial is the per-instance state of one parallel run of Algorithm 1/5.
// Every trial owns a private RNG derived from the run seed and the trial
// index (splitmix64), so its coin flips are identical no matter which worker
// executes it or in what order — the determinism contract of DESIGN.md §2.
// All slices are regions of the run's pooled trialArena (arena.go), carved
// by prepare; trials never allocate during the run.
type trial struct {
	rng        *rand.Rand
	cyclePath  [][]directedEdge // per cycle: k path edges
	cycleSpare []directedEdge   // per cycle: the extra edge for the high-degree branch
	starEdges  [][]directedEdge // per star: s directed edges
	neighbor   []oracle.Answer  // per cycle: round-2 neighbor answer
	branch     []cycleBranch    // per cycle: round-2 degree of u₁ and the branch it selects
	dead       bool
	relaxed    bool    // running in the relaxed (turnstile) model
	verts      []int64 // all distinct vertices needing degrees/adjacency

	// Postprocessing scratch (arena regions).
	view       trialView
	used       []int64
	seq        []int64 // cycle-sequence scratch, max cycle length
	tupleEdges [][2]int64
	tupleLocal [][2]int
}

// cycleBranch is what round 2 learns about one cycle's first vertex u₁:
// its degree, and with it Algorithm 1's branch. Everything after round 2 —
// vertex collection, the round-3 batch, postprocessing — reads low from here.
type cycleBranch struct {
	deg1 int64
	low  bool // deg(u₁) ≤ S: w is u₁'s sampled neighbor; else an endpoint of the spare edge
}

// knownDegree returns v's degree if round 2 already asked it (v is some
// cycle's u₁), so round 3 neither asks it again nor expects an answer for it.
func (tr *trial) knownDegree(v int64) (int64, bool) {
	for ci, path := range tr.cyclePath {
		if path[0].tail == v {
			return tr.branch[ci].deg1, true
		}
	}
	return 0, false
}

// Result carries the counting estimate and diagnostics.
type Result struct {
	// Estimate is the unbiased estimate of #H.
	Estimate float64
	// M is the number of edges observed in pass 1.
	M int64
	// Trials is the number of parallel sampler instances.
	Trials int
	// Hits is the number of trials that witnessed at least one copy.
	Hits int64
	// WeightSum is Σ |D(t)|/f_T over successful trials (the estimator's
	// numerator before dividing by Trials·W).
	WeightSum float64
	// StdErr is the estimator's standard error (sample standard deviation
	// of the per-trial contributions scaled like Estimate).
	StdErr float64
	// PerTupleProb is W, the per-tuple witness probability of one trial.
	PerTupleProb float64
	// Rounds is the adaptivity/pass count consumed: at most 3, and 3
	// whenever a trial survives round 2. It is 1 when the graph is empty or
	// every trial fails its round-1 prechecks, 2 when every remaining trial's
	// neighbor draw fails.
	Rounds int64
}

// Count runs the 3-round FGP counting algorithm (Theorem 17 / Theorem 1)
// with the given number of parallel trials and returns the unbiased
// estimate of #H. Trial work (construction, prechecks, round-3
// postprocessing) is spread over GOMAXPROCS workers; use CountParallel to
// bound or disable the fan-out.
func Count(r oracle.Runner, pl *Plan, trials int, rng *rand.Rand) (*Result, error) {
	return CountParallel(r, pl, trials, rng, 0)
}

// CountParallel is Count with an explicit worker bound: parallelism <= 0
// selects GOMAXPROCS, 1 forces the sequential path. The estimate is
// bit-identical for a fixed rng seed at any parallelism: each trial owns a
// splitmix64 RNG derived from the seed and the trial index, and per-trial
// contributions are reduced in trial order.
func CountParallel(r oracle.Runner, pl *Plan, trials int, rng *rand.Rand, parallelism int) (*Result, error) {
	if trials < 1 {
		return nil, fmt.Errorf("fgp: trials must be positive, got %d", trials)
	}
	res := &Result{Trials: trials}
	arena := trialArenaPool.Get()
	defer trialArenaPool.Put(arena)
	ts, err := runTrials(r, pl, trials, rng, res, parallelism, arena)
	if err != nil {
		return nil, err
	}
	if res.M == 0 {
		res.Estimate = 0
		return res, nil
	}
	var sumSq float64
	for _, t := range ts {
		if t.copies > 0 {
			res.Hits++
			z := float64(t.copies) / float64(pl.fT)
			res.WeightSum += z
			sumSq += float64(z * z)
		}
	}
	n := float64(trials)
	res.Estimate = res.WeightSum / (n * res.PerTupleProb)
	if trials > 1 {
		mean := res.WeightSum / n
		variance := (sumSq - float64(n*mean*mean)) / (n - 1)
		if variance > 0 {
			res.StdErr = math.Sqrt(variance/n) / res.PerTupleProb
		}
	}
	return res, nil
}

// trialOutcome is the postprocessed result of one trial.
type trialOutcome struct {
	copies int64        // |D(t)|; 0 for failed trials
	found  [][][2]int64 // the witnessed copies as global edge lists
	verts  []int64      // V'' in local-index order (only when copies > 0)
	rng    *rand.Rand   // the trial's RNG, for Sample's rejection coins
}

// runTrials executes the three query rounds shared by Count and Sample and
// post-processes every trial. The query rounds themselves are sequential
// (each is one stream pass); all per-trial work between rounds — orientation
// coins, prechecks, vertex collection, postprocessing — fans out over
// parallelism workers. Trials touch only their own state and their own RNG,
// so the outcome vector is independent of the worker count.
//
// All trial and outcome state lives in arena; the returned slice aliases it
// and is valid until the caller releases the arena.
func runTrials(r oracle.Runner, pl *Plan, trials int, rng *rand.Rand, res *Result, parallelism int, arena *trialArena) ([]trialOutcome, error) {
	// One sequential draw seeds the whole per-trial RNG family.
	seedBase := rng.Uint64()
	relaxed := r.Model() == oracle.Relaxed
	arena.prepare(pl, trials, relaxed)

	// ---- Round 1: count edges and sample all raw edges (f1). ----
	edgesPerTrial := 0
	for _, k := range pl.ks {
		edgesPerTrial += k + 1 // k path edges + 1 spare
	}
	for _, s := range pl.stars {
		edgesPerTrial += s
	}
	round1 := append(arena.q[:0], oracle.Query{Type: oracle.CountEdges})
	for t := 0; t < trials; t++ {
		for i := 0; i < edgesPerTrial; i++ {
			round1 = append(round1, oracle.Query{Type: oracle.RandomEdge})
		}
	}
	arena.q = round1
	a1, err := r.Round(round1)
	if err != nil {
		return nil, err
	}
	res.Rounds = 1
	m := a1[0].Count
	res.M = m
	if m <= 0 {
		return nil, nil
	}
	s := int64(math.Ceil(math.Sqrt(float64(2 * m))))
	res.PerTupleProb = pl.trialWeight(m, s)

	// ---- Trial construction and precheck (parallel over trials). The
	// arena slot's generator is reseeded exactly as a fresh splitmix64
	// source would be, so the coin-flip sequence matches a cold run's. ----
	ts := arena.trials
	par.For(parallelism, trials, func(t int) {
		tr := &ts[t]
		arena.srcs[t].Reseed(sketch.Hash64(seedBase, uint64(t)))
		pos := 1 + t*edgesPerTrial
		for ci, k := range pl.ks {
			spare := orient(tr.rng, a1[pos])
			pos++
			path := tr.cyclePath[ci]
			for j := 0; j < k; j++ {
				path[j] = orient(tr.rng, a1[pos])
				pos++
			}
			tr.cycleSpare[ci] = spare
			if !spare.ok {
				tr.dead = true
			}
			for _, e := range path {
				if !e.ok {
					tr.dead = true
				}
			}
		}
		for si, sp := range pl.stars {
			se := tr.starEdges[si]
			for j := 0; j < sp; j++ {
				se[j] = orient(tr.rng, a1[pos])
				pos++
				if !se[j].ok {
					tr.dead = true
				}
			}
		}
		// Cheap structural pre-checks that need no further queries: star
		// edges must share a tail, and all part vertices must be distinct.
		if !tr.dead {
			precheck(tr, pl)
		}
	})

	// ---- Round 2: one neighbor sample (f3) and the degree of u₁ (f2) per
	// cycle per live trial, as Algorithm 1 reads them — in the same pass.
	// Query assembly is sequential so the batch order is deterministic; the
	// neighbor-index draw comes from the trial's own RNG. ----
	round2 := arena.q[:0]
	nrefs := arena.nrefs[:0]
	for ti := range ts {
		tr := &ts[ti]
		if tr.dead {
			continue
		}
		for ci := range pl.ks {
			u1 := tr.cyclePath[ci][0].tail
			var q oracle.Query
			if !relaxed {
				// Insertion-only (Algorithm 1): the j-th neighbor for a
				// uniform j ∈ [S]; fails when j exceeds the degree, which
				// realizes probability exactly 1/S per neighbor.
				q = oracle.Query{Type: oracle.Neighbor, U: u1, I: tr.rng.Int63n(s) + 1}
			} else {
				// Turnstile (Algorithm 5): an ℓ0-sampled neighbor; the
				// degree-dependent acceptance coin is flipped in
				// postprocessing once the degree is known.
				q = oracle.Query{Type: oracle.RandomNeighbor, U: u1}
			}
			round2 = append(round2, q, oracle.Query{Type: oracle.Degree, U: u1})
			nrefs = append(nrefs, nref{ti, ci})
		}
	}
	arena.q, arena.nrefs = round2, nrefs
	if len(round2) > 0 {
		a2, err := r.Round(round2)
		if err != nil {
			return nil, err
		}
		res.Rounds = 2
		// The degree branch is decided here, once. A low-degree u₁ whose
		// neighbor draw failed (j > deg(u₁)) ends the trial: it asks nothing
		// in round 3, as Algorithm 1 stops there.
		for i, ref := range nrefs {
			tr := &ts[ref.t]
			nbr, deg := a2[2*i], a2[2*i+1].Count
			br := cycleBranch{deg1: deg, low: deg <= s}
			tr.neighbor[ref.c], tr.branch[ref.c] = nbr, br
			if br.low && !nbr.OK {
				tr.dead = true
			}
		}
	}

	// ---- Round 3: the degrees not yet known and all pairwise adjacencies
	// of the vertices each surviving trial's branches read (f2, f4). Vertex
	// collection is parallel; query assembly sequential. ----
	par.For(parallelism, trials, func(ti int) {
		if tr := &ts[ti]; !tr.dead {
			collectVertices(tr, pl)
		}
	})
	round3 := arena.q[:0]
	spans := arena.spans
	for ti := range ts {
		tr := &ts[ti]
		if tr.dead {
			continue
		}
		start := len(round3)
		for _, v := range tr.verts {
			if _, known := tr.knownDegree(v); !known {
				round3 = append(round3, oracle.Query{Type: oracle.Degree, U: v})
			}
		}
		for i := 0; i < len(tr.verts); i++ {
			for j := i + 1; j < len(tr.verts); j++ {
				round3 = append(round3, oracle.Query{Type: oracle.Adjacent, U: tr.verts[i], V: tr.verts[j]})
			}
		}
		spans[ti] = qspan{start, len(round3)}
	}
	arena.q = round3
	var a3 []oracle.Answer
	if len(round3) > 0 {
		a3, err = r.Round(round3)
		if err != nil {
			return nil, err
		}
		res.Rounds = 3
	}

	// ---- Postprocessing (offline, parallel over trials). ----
	out := arena.outs
	par.For(parallelism, trials, func(ti int) {
		tr := &ts[ti]
		if tr.dead {
			return
		}
		sp := spans[ti]
		out[ti] = postprocess(tr, pl, a3[sp.start:sp.end], m, s, tr.rng)
		out[ti].rng = tr.rng
	})
	return out, nil
}

// orient gives a sampled edge a fair-coin orientation from the trial's RNG.
func orient(rng *rand.Rand, a oracle.Answer) directedEdge {
	if !a.OK {
		return directedEdge{}
	}
	e := a.Edge
	if rng.Intn(2) == 0 {
		return directedEdge{tail: e.U, head: e.V, ok: true}
	}
	return directedEdge{tail: e.V, head: e.U, ok: true}
}

// precheck marks a trial dead if its star edges have mismatched centers or
// its parts share vertices — failures detectable before rounds 2 and 3.
// The duplicate scan borrows the trial's verts region as scratch (vertex
// sets are pattern-sized, so a linear scan beats a map); collectVertices
// rebuilds the region from empty afterwards.
func precheck(tr *trial, pl *Plan) {
	for _, se := range tr.starEdges {
		for _, e := range se[1:] {
			if e.tail != se[0].tail {
				tr.dead = true
				return
			}
		}
	}
	seen := tr.verts[:0]
	add := func(v int64) bool {
		for _, s := range seen {
			if s == v {
				return false
			}
		}
		seen = append(seen, v)
		return true
	}
	for _, path := range tr.cyclePath {
		for _, e := range path {
			if !add(e.tail) || !add(e.head) {
				tr.dead = true
				return
			}
		}
	}
	for _, se := range tr.starEdges {
		if !add(se[0].tail) {
			tr.dead = true
			return
		}
		for _, e := range se {
			if !add(e.head) {
				tr.dead = true
				return
			}
		}
	}
}

// collectVertices gathers every vertex the trial must know degrees and
// adjacencies for — per cycle the path endpoints plus the round-2 neighbor
// (low branch) or the spare-edge endpoints (high branch), then the star
// vertices — into the trial's arena-backed verts region, in first-occurrence
// order (the order defines the round-3 query sequence, so it must match a
// map-free cold run exactly — which it does, both being insertion-ordered
// dedup).
func collectVertices(tr *trial, pl *Plan) {
	verts := tr.verts[:0]
	add := func(v int64) {
		for _, s := range verts {
			if s == v {
				return
			}
		}
		verts = append(verts, v)
	}
	for ci, path := range tr.cyclePath {
		for _, e := range path {
			add(e.tail)
			add(e.head)
		}
		if tr.branch[ci].low {
			add(tr.neighbor[ci].Count)
		} else {
			add(tr.cycleSpare[ci].tail)
			add(tr.cycleSpare[ci].head)
		}
	}
	for _, se := range tr.starEdges {
		add(se[0].tail)
		for _, e := range se {
			add(e.head)
		}
	}
	tr.verts = verts
}

// trialView adapts the round-3 answers to the pattern package's Order and
// Adjacency interfaces (Definition 12's ≺_G and the queried E'). It is a
// dense matrix over the trial's vertex list — vertex sets are pattern-sized
// (≤ ~a dozen), so the identity scan is cheaper than any map and the view
// lives entirely in the trial's arena regions.
type trialView struct {
	verts []int64
	deg   []int64 // parallel to verts
	adj   []bool  // len(verts)² symmetric matrix, diagonal false
}

// idx returns a's position in verts, or -1.
func (v *trialView) idx(a int64) int {
	for i, x := range v.verts {
		if x == a {
			return i
		}
	}
	return -1
}

// degOf returns a's queried degree, or 0 if a was never collected —
// matching the old map form's zero value for absent keys.
func (v *trialView) degOf(a int64) int64 {
	if i := v.idx(a); i >= 0 {
		return v.deg[i]
	}
	return 0
}

func (v *trialView) Less(a, b int64) bool {
	var da, db int64
	if i := v.idx(a); i >= 0 {
		da = v.deg[i]
	}
	if i := v.idx(b); i >= 0 {
		db = v.deg[i]
	}
	if da != db {
		return da < db
	}
	return a < b
}

func (v *trialView) HasEdge(a, b int64) bool {
	ia, ib := v.idx(a), v.idx(b)
	if ia < 0 || ib < 0 {
		return false
	}
	return v.adj[ia*len(v.verts)+ib]
}

// postprocess performs the offline checks of Algorithm 1/5 lines 18–33:
// branch selection and acceptance coins, canonicality of every cycle and
// star, disjointness, and the copy extraction with multiplicity correction.
func postprocess(tr *trial, pl *Plan, answers []oracle.Answer, m, s int64, rng *rand.Rand) trialOutcome {
	nv := len(tr.verts)
	view := &tr.view
	view.verts = tr.verts
	view.deg = view.deg[:0]
	adj := view.adj[:nv*nv]
	for i := range adj {
		adj[i] = false
	}
	view.adj = adj
	pos := 0
	for _, v := range tr.verts {
		d, known := tr.knownDegree(v)
		if !known {
			d = answers[pos].Count
			pos++
		}
		view.deg = append(view.deg, d)
	}
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			adj[i*nv+j] = answers[pos].Yes
			adj[j*nv+i] = answers[pos].Yes
			pos++
		}
	}

	used := tr.used[:0]
	addUsed := func(v int64) bool {
		for _, u := range used {
			if u == v {
				return false
			}
		}
		used = append(used, v)
		return true
	}
	tupleEdges := tr.tupleEdges[:0]

	// Cycles: select w per the degree branch, flip the acceptance coin,
	// check canonicality.
	for ci := range pl.ks {
		path := tr.cyclePath[ci]
		var w int64
		if br := tr.branch[ci]; br.low {
			// Low-degree branch: w is the sampled neighbor of u1 (the draw
			// succeeded, or round 2 would have ended the trial).
			w = tr.neighbor[ci].Count
			// In the relaxed model the neighbor is uniform over deg(u1)
			// neighbors; accept with probability deg(u1)/S to land on 1/S
			// exactly. (The augmented Neighbor query already realized the
			// 1/S by failing when the random index exceeded the degree.)
			if tr.relaxed {
				if rng.Int63n(s) >= br.deg1 {
					return trialOutcome{}
				}
			}
		} else {
			// High-degree branch: w is a uniform endpoint of the spare
			// edge, i.e. degree-proportional; accept with probability
			// 2m/(S·deg(w)) to land on 1/S exactly (valid whenever
			// deg(w) ≥ 2m/S, which canonical cycles guarantee; otherwise
			// the canonicality check below rejects).
			spare := tr.cycleSpare[ci]
			if rng.Intn(2) == 0 {
				w = spare.tail
			} else {
				w = spare.head
			}
			den := s * view.degOf(w)
			if den > 2*m && rng.Int63n(den) >= 2*m {
				return trialOutcome{}
			}
		}
		// Cycle sequence u1, v1, u2, v2, ..., uk, vk, w.
		seq := tr.seq[:0]
		for _, e := range path {
			seq = append(seq, e.tail, e.head)
		}
		seq = append(seq, w)
		if !pattern.IsCanonicalCycle(seq, view, view) {
			return trialOutcome{}
		}
		for _, v := range seq {
			if !addUsed(v) {
				return trialOutcome{}
			}
		}
		for i := range seq {
			tupleEdges = append(tupleEdges, [2]int64{seq[i], seq[(i+1)%len(seq)]})
		}
	}

	// Stars: common center already pre-checked; verify canonical petal
	// order under ≺_G.
	for _, se := range tr.starEdges {
		center := se[0].tail
		petals := tr.seq[:0] // cycle processing is done; reuse its scratch
		for _, e := range se {
			petals = append(petals, e.head)
		}
		if !pattern.IsCanonicalStar(center, petals, view, view) {
			return trialOutcome{}
		}
		if !addUsed(center) {
			return trialOutcome{}
		}
		for _, p := range petals {
			if !addUsed(p) {
				return trialOutcome{}
			}
		}
		for _, p := range petals {
			tupleEdges = append(tupleEdges, [2]int64{center, p})
		}
	}

	if len(used) != pl.p.N() {
		return trialOutcome{}
	}

	// Map V'' to local indices and extract the witnessed copies D(t).
	// used is pattern-sized, so the index lookup is a linear scan.
	local := func(v int64) int {
		for i, u := range used {
			if u == v {
				return i
			}
		}
		return -1
	}
	adjLocal := func(a, b int) bool { return view.HasEdge(used[a], used[b]) }
	tupleLocal := tr.tupleLocal[:0]
	for _, e := range tupleEdges {
		tupleLocal = append(tupleLocal, [2]int{local(e[0]), local(e[1])})
	}
	copies := pattern.DecomposedCopies(pl.p, adjLocal, tupleLocal)
	if len(copies) == 0 {
		return trialOutcome{}
	}
	// A witnessed copy is rare; its outcome escapes the arena, so it gets
	// fresh storage here.
	found := make([][][2]int64, len(copies))
	for i, cp := range copies {
		ge := make([][2]int64, len(cp))
		for j, e := range cp {
			ge[j] = [2]int64{used[e[0]], used[e[1]]}
		}
		found[i] = ge
	}
	return trialOutcome{copies: int64(len(copies)), found: found, verts: append([]int64(nil), used...)}
}

// SampleResult is a uniformly sampled copy of H.
type SampleResult struct {
	// Edges are the copy's edges in the host graph.
	Edges []graph.Edge
	// Vertices are the copy's vertices.
	Vertices []int64
}

// Sample runs the FGP uniform subgraph sampler (Algorithm 10): it performs
// up to `trials` parallel trials in 3 rounds and returns the first
// successfully witnessed copy, rejection-corrected so that every copy of H
// is returned with identical probability W/c_max(H). ok is false if no trial
// succeeded.
func Sample(r oracle.Runner, pl *Plan, trials int, rng *rand.Rand) (SampleResult, bool, error) {
	return SampleParallel(r, pl, trials, rng, 0)
}

// SampleParallel is Sample with an explicit worker bound (see CountParallel
// for the parallelism contract). The rejection coins come from each trial's
// own RNG and trials are inspected in index order, so the returned copy is
// identical at any parallelism.
func SampleParallel(r oracle.Runner, pl *Plan, trials int, rng *rand.Rand, parallelism int) (SampleResult, bool, error) {
	if pl.cMax == 0 {
		pl.cMax = pattern.MaxCopiesPerTuple(pl.p, pl.dec)
	}
	res := &Result{Trials: trials}
	arena := trialArenaPool.Get()
	defer trialArenaPool.Put(arena)
	ts, err := runTrials(r, pl, trials, rng, res, parallelism, arena)
	if err != nil {
		return SampleResult{}, false, err
	}
	for _, t := range ts {
		if t.copies == 0 {
			continue
		}
		// Pick slot j uniform in [c_max]; a slot beyond |D(t)| rejects, so
		// every copy is selected with probability exactly 1/c_max.
		j := t.rng.Int63n(pl.cMax)
		if j >= t.copies {
			continue
		}
		// Paper's correction coin: accept with probability 1/f_T.
		if t.rng.Int63n(pl.fT) != 0 {
			continue
		}
		cp := t.found[j]
		edges := make([]graph.Edge, len(cp))
		vset := make(map[int64]bool)
		for i, e := range cp {
			edges[i] = graph.Edge{U: e[0], V: e[1]}.Canon()
			vset[e[0]] = true
			vset[e[1]] = true
		}
		verts := make([]int64, 0, len(vset))
		for v := range vset {
			verts = append(verts, v)
		}
		sortInt64s(verts)
		return SampleResult{Edges: edges, Vertices: verts}, true, nil
	}
	return SampleResult{}, false, nil
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
