package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"streamcount/internal/oracle"
	"streamcount/internal/stream"
)

// A span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that was open when this one
// began (-1 for an operation's root). Times are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so the untraced run pays one nil check per
// boundary and the decorators are not even installed.
//
// Parents come from a LIFO stack, which is exact here because every span is
// opened and closed by the one goroutine that drives the operation (stream
// passes of a session and every client call run on the caller's goroutine;
// see README "How to read the trace file"). A tracer is not safe for use
// from several goroutines.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: make([]int, 0, 8)} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order (open %v)", id, t.open))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = now
}

// nextOp starts a new operation: spans begun from now on carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// opSummary is what the layer metrics are computed from: per span name, the
// total duration, the self time (duration minus the part covered by child
// spans) and the number of spans, all within one operation.
type opSummary struct {
	op    int
	root  string
	wall  float64 // ns, like total and self
	total map[string]float64
	self  map[string]float64
	count map[string]int64
}

// summarize folds the recorded spans into one opSummary per operation.
func (t *tracer) summarize() []opSummary {
	if t == nil {
		return nil
	}
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	byOp := map[int]*opSummary{}
	var order []int
	for i, s := range t.spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opSummary{op: s.Op, total: map[string]float64{}, self: map[string]float64{}, count: map[string]int64{}}
			byOp[s.Op] = o
			order = append(order, s.Op)
		}
		d := float64(s.End - s.Start)
		if s.Parent < 0 {
			o.root = s.Name
			o.wall += d
		}
		o.total[s.Name] += d
		o.self[s.Name] += d - float64(childSum[i])
		o.count[s.Name]++
	}
	out := make([]opSummary, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	doc := struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}{Meta: meta, Spans: t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// Span names. The part before the first dot is the layer the span's self
// time is charged to in the "where the time went" table.
const (
	spanFacade  = "core.facade_op"    // streamcount.Run / client call, whole op
	spanStack   = "core.stack_op"     // plan + runner + algorithm, whole op
	spanPlan    = "fgp.plan"          // fgp.NewPlan
	spanFGP     = "fgp.count"         // fgp.CountParallel
	spanERS     = "ers.count"         // ers.Count
	spanRound   = "transform.round"   // oracle.Runner.Round (self = Begin/EndRound)
	spanPass    = "stream.pass"       // Stream.ForEachBatch (self = replay)
	spanConsume = "transform.consume" // the pass's consumer callback

	// service-mix, client depth: one cycle and its four legs.
	spanSrvCycle  = "server.cycle"
	spanSrvAppend = "server.append"
	spanSrvWatch  = "server.watch_wait"
	spanSrvCold   = "server.query_cold"
	spanSrvCached = "server.query_cached"
	// service-mix, engine depth: the same legs in-process, plus the
	// standalone run of the cold query at its pinned prefix.
	spanEngCycle  = "core.cycle"
	spanEngAppend = "core.append"
	spanEngWatch  = "core.watch_wait"
	spanEngCold   = "core.query_cold"
	spanEngCached = "rcache.query_cached"
	spanEngRun    = "core.run_standalone"
)

// tracedStream decorates a stream.Stream from outside: every ForEachBatch
// is one stream.pass span, every consumer callback one transform.consume
// span, and updates are counted where they are delivered.
type tracedStream struct {
	stream.Stream
	tr      *tracer
	updates int64
	passes  int64
}

func (s *tracedStream) ForEachBatch(fn func([]stream.Update) error) error {
	s.passes++
	id := s.tr.begin(spanPass)
	err := s.Stream.ForEachBatch(func(batch []stream.Update) error {
		s.updates += int64(len(batch))
		c := s.tr.begin(spanConsume)
		err := fn(batch)
		s.tr.end(c)
		return err
	})
	s.tr.end(id)
	return err
}

// ForEach is routed through ForEachBatch so no replay escapes the count.
func (s *tracedStream) ForEach(fn func(stream.Update) error) error {
	return s.ForEachBatch(func(batch []stream.Update) error {
		for _, u := range batch {
			if err := fn(u); err != nil {
				return err
			}
		}
		return nil
	})
}

// tracedRunner decorates an oracle.Runner: every Round is one
// transform.round span, and queries and successful answers are counted.
// It keeps a copy of the widest round's queries for the shard2 kernel.
type tracedRunner struct {
	oracle.Runner
	tr      *tracer
	queries int64
	ok      int64
	widest  []oracle.Query
}

func (r *tracedRunner) Round(qs []oracle.Query) ([]oracle.Answer, error) {
	r.queries += int64(len(qs))
	if len(qs) > len(r.widest) {
		r.widest = append(r.widest[:0], qs...)
	}
	id := r.tr.begin(spanRound)
	ans, err := r.Runner.Round(qs)
	r.tr.end(id)
	for _, a := range ans {
		if a.OK {
			r.ok++
		}
	}
	return ans, err
}
