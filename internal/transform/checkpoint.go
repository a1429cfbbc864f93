package transform

import (
	"fmt"
	"slices"

	"streamcount/internal/oracle"
	"streamcount/internal/par"
	"streamcount/internal/sketch"
)

// Round checkpoint/resume for the two pass runners (oracle.PassRunner's
// SnapshotRound/ResumeRound): an in-flight round's per-query state is deep
// copied at a batch boundary, and a later runner restores it and consumes
// only the stream suffix past the snapshot position. The contract, enforced
// by TestSnapshotResumeLinearity*, is exact linearity:
//
//	BeginRound + feed [0,end) + EndRound
//	  ≡ BeginRound + feed [0,v) + SnapshotRound on runner A,
//	    ResumeRound + feed [v,end) + EndRound on runner B
//
// bit for bit — answers, Rounds, Queries and SpaceWords. ResumeRound also
// discards exactly the RNG draws BeginRound would have made, so a resumed
// runner's later rounds (the FGP pipeline schedules three) stay in seed
// lockstep with a cold runner's.
//
// Snapshots are immutable: one snapshot can seed many resumptions, and
// further consumption on the snapshotted runner never leaks into it.

// ---- InsertionRunner ----

// insCheckpoint is InsertionRunner's RoundCheckpoint: the round's reservoir
// slots (as independent heap reservoirs, in slot order), query references and
// per-shard state at stream position m.
type insCheckpoint struct {
	queries  []oracle.Query
	p        int
	m        int64
	res      []*sketch.Reservoir
	resQuery []int
	refs     []queryRef
	shards   []insShardCheckpoint
	bytes    int64
}

// insShardCheckpoint is one shard's state with each key table reduced to its
// keys in dense-index order: re-inserting them rebuilds the table with the
// same indices, so the flat arrays beside it restore by plain copy and the
// checkpoint stays O(queried keys) however large the runner's tables grew.
type insShardCheckpoint struct {
	verts, pairs []uint64
	vs           []vertexState
	watches      []neighborWatch
	seen         []bool
}

func (c *insCheckpoint) CheckpointVersion() int64 { return c.m }
func (c *insCheckpoint) CheckpointBytes() int64   { return c.bytes }

// SnapshotRound implements oracle.PassRunner.
func (r *InsertionRunner) SnapshotRound() (oracle.RoundCheckpoint, error) {
	if !r.inRound {
		return nil, fmt.Errorf("transform: SnapshotRound outside a round")
	}
	cp := &insCheckpoint{
		queries:  slices.Clone(r.curQueries),
		p:        r.curP,
		m:        r.curM,
		res:      make([]*sketch.Reservoir, r.bank.Len()),
		resQuery: slices.Clone(r.resQuery),
		refs:     slices.Clone(r.refs),
		shards:   make([]insShardCheckpoint, len(r.shards)),
	}
	cp.bytes = int64(len(cp.queries))*(32+8) + int64(len(cp.res))*(64+8)
	for i := range cp.res {
		cp.res[i] = r.bank.Snapshot(i)
	}
	for i, sh := range r.shards {
		cp.shards[i] = insShardCheckpoint{
			verts:   sh.verts.keys(),
			pairs:   sh.pairs.keys(),
			vs:      slices.Clone(sh.vs),
			watches: slices.Clone(sh.watches),
			seen:    slices.Clone(sh.seen),
		}
		cp.bytes += int64(len(sh.vs))*(8+16) + int64(len(sh.watches))*24 + int64(len(sh.seen))*(8+1)
	}
	return cp, nil
}

// ResumeRound implements oracle.PassRunner: it restores cp as this runner's
// in-flight round, positioned to consume the stream suffix from fromVersion
// on. The runner's scratch — bank slots, shard tables and state arrays — is
// reused as the restore target, so a hot resume loop allocates nothing once
// the scratch has grown to the round's size.
func (r *InsertionRunner) ResumeRound(cp oracle.RoundCheckpoint, fromVersion int64) error {
	c, ok := cp.(*insCheckpoint)
	if !ok {
		return fmt.Errorf("transform: ResumeRound: %T is not an insertion-round checkpoint", cp)
	}
	if fromVersion != c.m {
		return fmt.Errorf("transform: ResumeRound: fromVersion %d != checkpoint position %d", fromVersion, c.m)
	}
	r.AbortRound()
	expireAnswers(r.answers)
	r.rounds++
	r.queries += int64(len(c.queries))
	// Mirror BeginRound's space accounting and RNG draws (one reservoir
	// seed per RandomEdge), so a resumed runner reports the same budgets
	// and stays in seed lockstep for subsequent rounds.
	for _, q := range c.queries {
		switch q.Type {
		case oracle.CountEdges, oracle.Degree, oracle.Adjacent:
			r.space++
		case oracle.RandomEdge:
			r.rng.Uint64()
			r.space += 2
		case oracle.Neighbor:
			r.space += 2
		}
	}
	r.inRound = true
	r.curQueries = c.queries
	r.curM = c.m
	r.curP = c.p
	r.ensureShards(c.p)
	r.bank.Reset(len(c.res))
	for i, rs := range c.res {
		if !r.bank.Restore(i, rs) {
			return fmt.Errorf("transform: ResumeRound: checkpoint reservoir %d has an external RNG and cannot be restored", i)
		}
	}
	r.resQuery = append(r.resQuery[:0], c.resQuery...)
	r.refs = append(r.refs[:0], c.refs...)
	for i, src := range c.shards {
		sh := r.shards[i]
		for _, u := range src.verts {
			sh.verts.insert(u)
		}
		for _, key := range src.pairs {
			sh.pairs.insert(key)
		}
		sh.vs = append(sh.vs, src.vs...)
		sh.watches = append(sh.watches, src.watches...)
		sh.seen = append(sh.seen, src.seen...)
	}
	r.bindShards(len(c.res), c.p)
	r.startGroup(c.p)
	return nil
}

// ---- TurnstileRunner ----

// turnCheckpoint is TurnstileRunner's RoundCheckpoint. The ℓ0-sketches are
// linear, so the buffered sampler feeds are flushed into the live samplers at
// capture time — as they are at every feedBlock — and the snapshot clones
// them: the checkpoint size is O(query state), independent of how much
// stream the round has consumed, and feeding the suffix later lands on
// exactly the cells a single full feed would.
type turnCheckpoint struct {
	queries  []oracle.Query
	p        int
	consumed int64 // updates consumed (stream position)
	m        int64 // net edge count at that position
	base     uint64
	edge     []*sketch.L0Sampler
	edgeIdx  []int
	nbrVerts []int64
	nbr      map[int64][]*sketch.L0Sampler
	nbrIdx   map[int64][]int
	deg      map[int64]int64
	adj      map[uint64]int64
	bytes    int64
}

func (c *turnCheckpoint) CheckpointVersion() int64 { return c.consumed }
func (c *turnCheckpoint) CheckpointBytes() int64   { return c.bytes }

// restoreSampler loads a checkpoint sampler's state into a freelist entry
// when geometries agree, falling back to a fresh clone: a hot resume loop
// then reuses its sampler cells instead of reallocating them.
func (r *TurnstileRunner) restoreSampler(src *sketch.L0Sampler) *sketch.L0Sampler {
	if n := len(r.freeSamplers); n > 0 {
		cand := r.freeSamplers[n-1]
		if cand.CopyStateFrom(src) {
			r.freeSamplers = r.freeSamplers[:n-1]
			return cand
		}
	}
	return src.Clone()
}

// SnapshotRound implements oracle.PassRunner.
func (r *TurnstileRunner) SnapshotRound() (oracle.RoundCheckpoint, error) {
	if !r.inRound {
		return nil, fmt.Errorf("transform: SnapshotRound outside a round")
	}
	cp := &turnCheckpoint{
		queries:  append([]oracle.Query(nil), r.curQueries...),
		p:        r.curP,
		consumed: r.curConsumed,
		m:        r.curM,
		base:     r.curBase,
		edgeIdx:  append([]int(nil), r.edgeSampIdx...),
		nbrVerts: append([]int64(nil), r.nbrVerts...),
		nbr:      make(map[int64][]*sketch.L0Sampler, len(r.nbrSamplers)),
		nbrIdx:   make(map[int64][]int, len(r.nbrSampIdx)),
		deg:      make(map[int64]int64),
		adj:      make(map[uint64]int64),
	}
	cp.bytes = int64(len(cp.queries)) * 32
	r.flushFeeds()
	for _, s := range r.edgeSamplers {
		cp.edge = append(cp.edge, s.Clone())
		cp.bytes += s.CellBytes()
	}
	for _, v := range cp.nbrVerts {
		for _, s := range r.nbrSamplers[v] {
			cp.nbr[v] = append(cp.nbr[v], s.Clone())
			cp.bytes += s.CellBytes()
		}
		cp.nbrIdx[v] = append([]int(nil), r.nbrSampIdx[v]...)
	}
	// Counters: shards own disjoint keys, so a flat merge loses nothing.
	for _, sh := range r.shards {
		for k, v := range sh.deg {
			cp.deg[k] = v
			cp.bytes += 48
		}
		for k, v := range sh.adj {
			cp.adj[k] = v
			cp.bytes += 48
		}
	}
	return cp, nil
}

// ResumeRound implements oracle.PassRunner: it restores cp as this runner's
// in-flight round. The restored samplers already contain the prefix
// [0, fromVersion); the round's remaining feeds start empty, so EndRound
// sweeps only the suffix — O(Δ) sampler work.
func (r *TurnstileRunner) ResumeRound(cp oracle.RoundCheckpoint, fromVersion int64) error {
	c, ok := cp.(*turnCheckpoint)
	if !ok {
		return fmt.Errorf("transform: ResumeRound: %T is not a turnstile-round checkpoint", cp)
	}
	if fromVersion != c.consumed {
		return fmt.Errorf("transform: ResumeRound: fromVersion %d != checkpoint position %d", fromVersion, c.consumed)
	}
	if err := checkUniverse(r.st.N()); err != nil {
		return err
	}
	r.AbortRound()
	expireAnswers(r.answers)
	r.rounds++
	r.queries += int64(len(c.queries))
	// Mirror BeginRound's RNG draws (fingerprint base, then one seed per
	// sampler query) so later rounds stay in seed lockstep with a cold
	// runner's; mirror its space accounting likewise.
	r.rng.Uint64()
	for _, q := range c.queries {
		switch q.Type {
		case oracle.CountEdges, oracle.Degree, oracle.Adjacent:
			r.space++
		case oracle.RandomEdge, oracle.RandomNeighbor:
			r.rng.Uint64()
		}
	}
	r.inRound = true
	r.curQueries = c.queries
	r.curP = c.p
	r.curM = c.m
	r.curConsumed = c.consumed
	r.curBuffered = 0
	r.curBase = c.base
	r.ensureShards(c.p)
	r.edgeFeed = r.edgeFeed[:0]
	r.edgeSamplers = r.edgeSamplers[:0]
	for _, s := range c.edge {
		cl := r.restoreSampler(s)
		r.edgeSamplers = append(r.edgeSamplers, cl)
		r.space += cl.SpaceWords()
	}
	r.edgeSampIdx = append(r.edgeSampIdx[:0], c.edgeIdx...)
	if r.nbrSamplers == nil {
		r.nbrSamplers = make(map[int64][]*sketch.L0Sampler, len(c.nbr))
		r.nbrSampIdx = make(map[int64][]int, len(c.nbrIdx))
	} else {
		clear(r.nbrSamplers)
		clear(r.nbrSampIdx)
	}
	r.nbrVerts = append(r.nbrVerts[:0], c.nbrVerts...)
	for _, v := range r.nbrVerts {
		for _, s := range c.nbr[v] {
			cl := r.restoreSampler(s)
			r.nbrSamplers[v] = append(r.nbrSamplers[v], cl)
			r.space += cl.SpaceWords()
		}
		r.nbrSampIdx[v] = append([]int(nil), c.nbrIdx[v]...)
		sh := r.shards[shardOfVertex(v, c.p)]
		if _, ok := sh.nbrFeed[v]; !ok {
			sh.nbrFeed[v] = sh.newFeed()
		}
	}
	for k, v := range c.deg {
		r.shards[shardOfVertex(k, c.p)].deg[k] = v
	}
	for k, v := range c.adj {
		r.shards[shardOfKey(k, c.p)].adj[k] = v
	}
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	if c.p > 1 {
		r.grp = par.NewGroup(c.p)
	}
	return nil
}
