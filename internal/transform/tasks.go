// Package transform implements the paper's generic transformation from
// k-round adaptive query algorithms to k-pass streaming algorithms
// (Theorems 9 and 11).
//
// The two streaming runners answer each batch of queries with a single pass
// over the stream: InsertionRunner emulates the augmented general graph
// model (Theorem 9) with reservoirs and counters; TurnstileRunner emulates
// the relaxed augmented general graph model (Theorem 11) with ℓ0-samplers
// and signed counters. Because algorithms are written against the
// oracle.Runner interface, the very same algorithm code also runs on
// oracle.Direct, realizing the sublinear-time query-model setting.
//
// Run executes a set of Tasks in parallel rounds: per executor iteration,
// every unfinished task contributes one batch of queries, all batches are
// answered by one Round (one pass), and the answers are distributed back.
// The total number of passes is therefore the maximum round count over the
// tasks — exactly the paper's "parallel for" composition.
package transform

import (
	"fmt"

	"streamcount/internal/oracle"
	"streamcount/internal/pool"
)

// Task is a round-adaptive computation (Definition 8). Step is called with
// the answers to the task's previous query batch (nil on the first call),
// appends its next batch to dst and returns the extended slice. When done is
// true the task has finished and must have appended nothing. prev is the
// runner's own buffer (oracle.Runner.Round): a task copies what it needs
// beyond this call. dst is the executor's batch; its earlier elements are
// other tasks' queries.
type Task interface {
	Step(prev []oracle.Answer, dst []oracle.Query) (queries []oracle.Query, done bool)
}

// runScratch is one Run call's round buffers: the batch handed to the
// runner and, per unfinished task, where its queries sit in it. Runners
// keep a batch only until the round ends, so the buffers are refilled round
// after round and recycled across Run calls — ERS calls Run once per phase
// with rounds of 10⁵ queries from 10⁴ tasks.
type runScratch struct {
	batch []oracle.Query
	spans []runSpan
}

// runSpan says that unfinished task number task asked batch[start:end], and
// so is answered by answers[start:end].
type runSpan struct {
	task, start, end int
}

var runScratchPool = pool.New(
	func() *runScratch { return &runScratch{} },
	func(sc *runScratch) { sc.batch, sc.spans = sc.batch[:0], sc.spans[:0] },
	func(sc *runScratch) {
		pool.Dirty(sc.batch, oracle.Query{Type: -0x5a, U: -0x5a5a5a, V: -0x5a5a5a, I: -0x5a5a5a})
		pool.Dirty(sc.spans, runSpan{-0x5a5a5a, -0x5a5a5a, -0x5a5a5a})
	},
)

// Run executes the tasks against the runner, batching each round's queries
// from all unfinished tasks into a single Round call: every task appends
// straight to the one batch. It returns the number of rounds consumed.
func Run(r oracle.Runner, tasks ...Task) (rounds int64, err error) {
	sc := runScratchPool.Get()
	// An unfinished task always asked something, so the unfinished tasks are
	// exactly the last round's spans, in task order; before the first round
	// every task has an empty span of no answers.
	live := sc.spans[:0]
	for i := range tasks {
		live = append(live, runSpan{task: i})
	}
	var answers []oracle.Answer
	for {
		batch := sc.batch[:0]
		next := live[:0] // filtered in place: never ahead of the span being read
		for _, sp := range live {
			start := len(batch)
			var done bool
			batch, done = tasks[sp.task].Step(answers[sp.start:sp.end], batch)
			n := len(batch) - start
			if done {
				if n != 0 {
					return rounds, fmt.Errorf("transform: task returned %d queries with done=true", n)
				}
				continue
			}
			if n <= 0 {
				return rounds, fmt.Errorf("transform: task returned no queries but is not done")
			}
			next = append(next, runSpan{sp.task, start, len(batch)})
		}
		live = next
		sc.batch, sc.spans = batch, live
		if len(live) == 0 {
			break
		}
		if answers, err = r.Round(batch); err != nil {
			return rounds, err
		}
		rounds++
	}
	// Released on success only, like the runners (DESIGN.md §12): after a
	// failed round the runner may still hold the batch.
	runScratchPool.Put(sc)
	return rounds, nil
}

// StagesTask builds a Task from a fixed sequence of stages. Stage i receives
// the answers to stage i-1's queries (nil for stage 0) and returns stage
// i's queries. A stage returning an empty batch terminates the task (so the
// last stage is typically a postprocessing step that consumes the final
// answers and returns nil).
type StagesTask struct {
	stages []func(prev []oracle.Answer) []oracle.Query
	next   int
}

// NewStages builds a StagesTask from the given stage functions.
func NewStages(stages ...func(prev []oracle.Answer) []oracle.Query) *StagesTask {
	return &StagesTask{stages: stages}
}

// Step implements Task.
func (t *StagesTask) Step(prev []oracle.Answer, dst []oracle.Query) ([]oracle.Query, bool) {
	if t.next >= len(t.stages) {
		return dst, true
	}
	qs := t.stages[t.next](prev)
	t.next++
	if len(qs) == 0 {
		t.next = len(t.stages)
		return dst, true
	}
	return append(dst, qs...), false
}
