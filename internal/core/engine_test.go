package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// gatedStream wraps a stream and blocks the start of every pass until
// released; it reports each pass start on Started. It gives tests a
// deterministic way to catch the engine mid-generation.
type gatedStream struct {
	stream.Stream
	Started chan struct{} // one send per pass start (buffered by tests)
	Gate    chan struct{} // receive one token per pass to proceed
}

func newGatedStream(st stream.Stream) *gatedStream {
	return &gatedStream{Stream: st, Started: make(chan struct{}, 64), Gate: make(chan struct{}, 64)}
}

func (g *gatedStream) ForEachBatch(fn func([]stream.Update) error) error {
	g.Started <- struct{}{}
	<-g.Gate
	return g.Stream.ForEachBatch(fn)
}

// release lets n passes through the gate.
func (g *gatedStream) release(n int) {
	for i := 0; i < n; i++ {
		g.Gate <- struct{}{}
	}
}

// open opens the gate permanently: every pass from now on proceeds without
// a token. Call at most once.
func (g *gatedStream) open() { close(g.Gate) }

func engineTestJob(seed int64) Job {
	return Job{Kind: JobEstimate, Config: Config{Pattern: pattern.Triangle(), Trials: 2000, Seed: seed}}
}

// TestEngineServesAndMatchesStandalone: the basic aha — submit at any time,
// get the bit-identical standalone answer back.
func TestEngineServesAndMatchesStandalone(t *testing.T) {
	sl := sessionWorkload(t)
	want, err := runCount(sl, engineTestJob(3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sl, EngineOptions{})
	defer e.Close()
	h, err := e.Submit(context.Background(), engineTestJob(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("engine result %+v != standalone %+v", *got, *want)
	}
	if e.Generations() != 1 {
		t.Errorf("generations=%d, want 1", e.Generations())
	}
}

// TestEngineGroupsArrivalsIntoGenerations pins the acceptance bound
// deterministically: queries arriving while a generation is being served are
// admitted together into the next generation, which costs max-rounds shared
// passes (3 for any number of concurrent FGP jobs), not the sum.
func TestEngineGroupsArrivalsIntoGenerations(t *testing.T) {
	sl := sessionWorkload(t)
	g := newGatedStream(sl)
	e := NewEngine(g, EngineOptions{})
	defer e.Close()

	// Generation 1: a single job; hold its first pass at the gate.
	first := make(chan *JobHandle, 1)
	go func() {
		h, err := e.Submit(context.Background(), engineTestJob(1))
		if err != nil {
			t.Error(err)
		}
		first <- h
	}()
	<-g.Started // generation 1 is mid-replay

	// Queue K queries while generation 1 is being served.
	const k = 4
	results := make(chan *JobHandle, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			h, err := e.Submit(context.Background(), engineTestJob(10+i))
			if err != nil {
				t.Error(err)
			}
			results <- h
		}(int64(i))
	}
	waitFor(t, func() bool { return e.Pending() == k })

	// Let every pass through: generation 1 (3 passes) + generation 2 (3
	// shared passes for all K jobs).
	g.release(64)
	wg.Wait()
	<-first

	if gens := e.Generations(); gens != 2 {
		t.Errorf("generations=%d, want 2", gens)
	}
	if got := e.Passes(); got != 6 {
		t.Errorf("shared passes=%d, want 6 (3 for the single job + 3 for the %d grouped jobs)", got, k)
	}
	close(results)
	for h := range results {
		est, err := h.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := runCount(sl, h.Job())
		if err != nil {
			t.Fatal(err)
		}
		if *est != *want {
			t.Errorf("grouped job (seed %d): %+v != standalone %+v", h.Job().Config.Seed, *est, *want)
		}
	}
}

// TestEngineAdmissionWindow: with a window, queries that arrive while the
// engine is idle are grouped into one generation.
func TestEngineAdmissionWindow(t *testing.T) {
	sl := sessionWorkload(t)
	e := NewEngine(sl, EngineOptions{Window: 200 * time.Millisecond})
	defer e.Close()
	const k = 3
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			if _, err := e.Submit(context.Background(), engineTestJob(20+i)); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
	// All jobs are 3-round FGP estimates, so every generation costs exactly
	// 3 shared passes regardless of how the window sliced the arrivals; if
	// the window grouped them at all, generations < k.
	gens := e.Generations()
	if gens < 1 || gens > k {
		t.Fatalf("generations=%d, want 1..%d", gens, k)
	}
	if got := e.Passes(); got != 3*gens {
		t.Errorf("shared passes=%d, want 3*generations=%d", got, 3*gens)
	}
}

// TestEngineSubmitErrors: job-level validation errors surface through Submit
// with their typed sentinels, and the engine keeps serving afterwards.
func TestEngineSubmitErrors(t *testing.T) {
	sl := sessionWorkload(t)
	e := NewEngine(sl, EngineOptions{})
	defer e.Close()

	if _, err := e.Submit(context.Background(), Job{Kind: JobEstimate}); !errors.Is(err, ErrBadPattern) {
		t.Errorf("nil pattern error = %v, want ErrBadPattern", err)
	}
	cfg := Config{Pattern: pattern.Triangle()} // no trials derivation inputs
	if _, err := e.Submit(context.Background(), Job{Kind: JobEstimate, Config: cfg}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("underivable trials error = %v, want ErrBadConfig", err)
	}
	if _, err := e.SubmitTo(context.Background(), "nope", engineTestJob(1)); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("unknown stream error = %v, want ErrUnknownStream", err)
	}
	// Still serviceable.
	if _, err := e.Submit(context.Background(), engineTestJob(2)); err != nil {
		t.Fatalf("engine poisoned by bad jobs: %v", err)
	}
}

// TestEngineNamedStreams: registered streams are served independently and
// results match their standalone runs.
func TestEngineNamedStreams(t *testing.T) {
	sl := sessionWorkload(t)
	ts := turnstileWorkload(t)
	e := NewEngine(sl, EngineOptions{})
	defer e.Close()
	if err := e.Register("turnstile", ts); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("turnstile", ts); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate register error = %v, want ErrBadConfig", err)
	}

	wantIns, err := runCount(sl, engineTestJob(5))
	if err != nil {
		t.Fatal(err)
	}
	wantTs, err := runCount(ts, engineTestJob(5))
	if err != nil {
		t.Fatal(err)
	}
	hIns, err := e.Submit(context.Background(), engineTestJob(5))
	if err != nil {
		t.Fatal(err)
	}
	hTs, err := e.SubmitTo(context.Background(), "turnstile", engineTestJob(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := hIns.Estimate(); *got != *wantIns {
		t.Errorf("default stream: %+v != %+v", *got, *wantIns)
	}
	if got, _ := hTs.Estimate(); *got != *wantTs {
		t.Errorf("named stream: %+v != %+v", *got, *wantTs)
	}
	if e.PassesOn("turnstile") != 3 {
		t.Errorf("turnstile lane passes=%d, want 3", e.PassesOn("turnstile"))
	}
	want := []string{"", "turnstile"}
	got := e.Streams()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Streams()=%v, want %v", got, want)
	}
}

// TestEngineClose: close fails queued jobs with ErrEngineClosed, aborts the
// running generation with ErrCanceled, and rejects later submits.
func TestEngineClose(t *testing.T) {
	sl := sessionWorkload(t)
	g := newGatedStream(sl)
	e := NewEngine(g, EngineOptions{})

	running := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), engineTestJob(1))
		running <- err
	}()
	<-g.Started // generation 1 is mid-replay

	queued := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), engineTestJob(2))
		queued <- err
	}()
	waitFor(t, func() bool { return e.Pending() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	// Wait until the shutdown is actually in flight, then unblock the gated
	// pass: the first batch after the gate observes the canceled context.
	waitFor(t, func() bool { return e.root.Err() != nil })
	g.release(64)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-running; !errors.Is(err, ErrCanceled) {
		t.Errorf("running job error = %v, want ErrCanceled", err)
	}
	if err := <-queued; !errors.Is(err, ErrEngineClosed) {
		t.Errorf("queued job error = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Submit(context.Background(), engineTestJob(3)); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("submit after close = %v, want ErrEngineClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// turnstileWorkload is a deterministic stream with deletions.
func turnstileWorkload(t *testing.T) *stream.Slice {
	t.Helper()
	sl := sessionWorkload(t)
	// Delete and re-insert the first edge: the final graph is unchanged but
	// the stream is genuinely turnstile.
	ups := make([]stream.Update, 0, sl.Len()+2)
	ups = append(ups, sl.Updates()...)
	ups = append(ups,
		stream.Update{Edge: sl.Updates()[0].Edge, Op: stream.Delete},
		stream.Update{Edge: sl.Updates()[0].Edge, Op: stream.Insert},
	)
	ts, err := stream.NewSlice(sl.N(), ups)
	if err != nil {
		t.Fatal(err)
	}
	if ts.InsertOnly() {
		t.Fatal("precondition: turnstile stream")
	}
	return ts
}

// waitFor polls cond with a deadline; the engine's admission queue has no
// synchronous observer, so tests wait for it to settle.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
