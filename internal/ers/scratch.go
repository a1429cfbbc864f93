package ers

import (
	"math"
	"slices"

	"streamcount/internal/keytab"
	"streamcount/internal/oracle"
	"streamcount/internal/pool"
	"streamcount/internal/transform"
)

// countScratch is everything one Count builds and drops, kept for the next
// count: both phases' chain environments — with their arenas, numbering
// tables, assignment jobs and the slab of activeness chains — the
// invocations, the task list handed to transform.Run and the first pass's
// query. A count holds it from its start to its return and puts it back only
// on success (DESIGN.md §12); the Result it returns shares no memory with it.
type countScratch struct {
	inv, act chainEnv
	invs     []invocationTask
	tasks    []transform.Task
	first    [1]oracle.Query
}

var countScratchPool = pool.New(
	func() *countScratch { return &countScratch{} },
	(*countScratch).reset,
	dirtyCountScratch,
)

// reset takes back everything the last count handed out — both arenas
// rewind, the job slots and the chain slab empty — and keeps every buffer's
// memory for the next.
func (sc *countScratch) reset() {
	for _, env := range [2]*chainEnv{&sc.inv, &sc.act} {
		env.arena.rewind()
		env.njobs, env.chains = 0, env.chains[:0]
	}
	sc.invs, sc.tasks = sc.invs[:0], sc.tasks[:0]
}

// Sentinels a dirtied scratch is smeared with.
const (
	dirtyWord = -0x5a5a5a5a5a5a5a5a
	dirtyInt  = -0x5a5a5a5a
)

// dirtyChain is what every chain slot of a dirtied scratch holds: a chain
// read before it was started is at an impossible level with no env.
var dirtyChain = levelChain{
	t: dirtyInt, n: dirtyInt, omega: math.NaN(), dgProd: math.NaN(), sProd: math.NaN(),
	aborted: true, state: -0x5a, maxState: dirtyWord,
}

// dirtyCountScratch smears every buffer of a scratch to its capacity, and
// the jobs' arrays too, so a count that reads what it did not write this
// time reads sentinels.
func dirtyCountScratch(sc *countScratch) {
	for _, env := range [2]*chainEnv{&sc.inv, &sc.act} {
		pool.DirtyInt64(env.arena.chunk)
		pool.DirtyInt64(env.prefix)
		pool.DirtyInt64(env.nextV)
		pool.DirtyInt64(env.nextD)
		env.numbers.dirty()
		pool.Dirty(env.chains, dirtyChain)
		jobs := env.jobs[:cap(env.jobs)]
		for i := range jobs {
			jobs[i].dirty()
		}
		pool.Dirty(env.ord, dirtyInt)
		pool.DirtyInt64(env.vs)
		pool.DirtyInt64(env.ds)
	}
	pool.Dirty(sc.invs, invocationTask{chain: dirtyChain, m: dirtyWord, state: dirtyInt, s2: dirtyWord, omega1: math.NaN()})
	pool.Dirty(sc.tasks, transform.Task(nil))
	sc.first[0] = oracle.Query{Type: -0x5a, U: dirtyInt, V: dirtyInt, I: dirtyInt}
}

// dirty smears a job slot's arrays; the next newAssignJob on the slot
// truncates them.
func (j *assignJob) dirty() {
	pool.Dirty(j.clique, dirtyInt)
	pool.DirtyInt64(j.sorted)
	pool.DirtyInt64(j.sortedDegs)
	pool.Dirty(j.perms, dirtyInt)
	pool.Dirty(j.active, true)
	pool.Dirty(j.level, dirtyInt)
	pool.DirtyInt64(j.seeds)
	pool.DirtyInt64(j.assigned)
	pool.Dirty(j.has, true)
}

// reserve returns s with room for n more elements. Short of room, it makes
// half as much again as it needs: the next counts need about as much of a
// scratch buffer, and one that needs a little more should not grow it again.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	need := len(s) + n
	return append(make([]T, 0, need+need/2), s...)
}

// tupleTable numbers distinct vertex tuples 0, 1, 2, … in first-seen order,
// which is the order the chains that draw from the count's one RNG are laid
// out in, so no draw depends on where a tuple lands in the table. It numbers
// each tuple's hash through a keytab.Table and keeps the tuples back to back
// in number order; a hash the table already numbers for another tuple is
// rehashed until it is free or names this tuple. resetFor keeps every array,
// so a table reused from count to count allocates only when it is to hold
// more tuples than it ever has.
type tupleTable struct {
	hashes keytab.Table // tuple hash (or rehash) -> tuple number
	verts  []int64      // the tuples in number order, back to back
	ends   []int32      // tuple k is verts[ends[k-1]:ends[k]], with ends[-1] = 0
}

const tupleHashMul = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd

// resetFor empties the table with room for n tuples of up to width
// vertices: a table that has held as many allocates nothing, and a table
// that serves many tuple sets in turn clears what the set at hand takes, not
// what the largest ever did.
func (t *tupleTable) resetFor(n, width int) {
	t.hashes.ResetFor(n)
	t.verts = reserve(t.verts[:0], n*width)
	t.ends = reserve(t.ends[:0], n)
}

// dirty smears the table's arrays with sentinels; resetFor clears what the
// next tuple set uses.
func (t *tupleTable) dirty() {
	t.hashes.Dirty()
	pool.DirtyInt64(t.verts)
	pool.Dirty(t.ends, 0x5a5a5a5a)
}

// tuple returns the vertices of tuple k.
func (t *tupleTable) tuple(k int32) []int64 {
	start := int32(0)
	if k > 0 {
		start = t.ends[k-1]
	}
	return t.verts[start:t.ends[k]]
}

func hashTuple(vs []int64) uint64 {
	h := uint64(len(vs))
	for _, v := range vs {
		h = (h ^ uint64(v)) * tupleHashMul
	}
	return h
}

// rehash is the next hash a tuple tries when the table numbers h for
// another tuple.
func rehash(h uint64) uint64 { return (h + 1) * tupleHashMul }

// number returns the number of tuple vs, and whether vs is new: a new tuple
// gets the next number. vs is copied, not kept.
func (t *tupleTable) number(vs []int64) (k int32, fresh bool) {
	for h := hashTuple(vs); ; h = rehash(h) {
		k = t.hashes.Insert(h)
		if int(k) == len(t.ends) {
			t.verts = append(t.verts, vs...)
			t.ends = append(t.ends, int32(len(t.verts)))
			return k, true
		}
		if slices.Equal(t.tuple(k), vs) {
			return k, false
		}
	}
}
