package streamcount_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"streamcount"
)

// watchUpdates is the deterministic edge sequence the watch tests ingest.
func watchUpdates(t testing.TB) []streamcount.Update {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	g := streamcount.ErdosRenyi(rng, 100, 900)
	var ups []streamcount.Update
	for _, e := range g.Edges() {
		ups = append(ups, streamcount.Update{Edge: e, Op: streamcount.Insert})
	}
	return ups
}

func watchEngine(t *testing.T) (*streamcount.Engine, *streamcount.AppendableStream) {
	t.Helper()
	app, err := streamcount.NewAppendableStream(100, streamcount.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := streamcount.NewEngine(app)
	t.Cleanup(func() { e.Close() })
	return e, app
}

// TestWatchTypedEvents: the typed Watch delivers ordered, version-pinned
// *CountResult events, each bit-identical to a standalone Run over the same
// prefix at the derived seed — the facade half of the determinism contract.
func TestWatchTypedEvents(t *testing.T) {
	e, app := watchEngine(t)
	ups := watchUpdates(t)
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	q := streamcount.CountQuery(p, streamcount.WithTrials(1200), streamcount.WithSeed(seed))
	sub, err := streamcount.Watch(context.Background(), e, "", q, streamcount.WatchEveryVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var versions []int64
	for _, cut := range []int{300, 600, 900} {
		start := 0
		if len(versions) > 0 {
			start = int(versions[len(versions)-1])
		}
		v, err := e.Append("", ups[start:cut])
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
	}

	for i, wantV := range versions {
		select {
		case ev := <-sub.Events():
			if ev.Err != nil {
				t.Fatalf("event %d: %v", i, ev.Err)
			}
			if ev.StreamVersion != wantV || ev.Generation != int64(i) {
				t.Fatalf("event %d: version %d generation %d, want %d/%d", i, ev.StreamVersion, ev.Generation, wantV, i)
			}
			view, err := app.At(wantV)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := streamcount.Run(context.Background(), view, streamcount.CountQuery(p,
				streamcount.WithTrials(1200),
				streamcount.WithSeed(streamcount.WatchSeedAt(seed, wantV))))
			if err != nil {
				t.Fatal(err)
			}
			if *ev.Result != *ref {
				t.Errorf("event at version %d: %+v != standalone %+v", wantV, *ev.Result, *ref)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("no event %d", i)
		}
	}
}

// TestWatchRejectsStaticStream: standing queries need an appendable lane.
func TestWatchRejectsStaticStream(t *testing.T) {
	_, st := queryWorkload(t)
	e := streamcount.NewEngine(st)
	defer e.Close()
	p, _ := streamcount.PatternByName("triangle")
	if _, err := streamcount.Watch(context.Background(), e, "", streamcount.CountQuery(p, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrNotAppendable) {
		t.Errorf("watch on static stream: %v, want ErrNotAppendable", err)
	}
	if _, err := e.WatchQuery(context.Background(), "ghost", streamcount.CountQuery(p, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrUnknownStream) {
		t.Errorf("watch on unknown stream: %v, want ErrUnknownStream", err)
	}
}

// TestWatchBufferSetsEventCapacity: WithWatchBuffer sizes the event
// channel, the default is 1, and a negative size clamps to 0.
func TestWatchBufferSetsEventCapacity(t *testing.T) {
	e, _ := watchEngine(t)
	p, _ := streamcount.PatternByName("triangle")
	q := streamcount.CountQuery(p, streamcount.WithTrials(10))
	for _, c := range []struct {
		opts []streamcount.WatchOption
		want int
	}{
		{[]streamcount.WatchOption{streamcount.WithWatchBuffer(4)}, 4},
		{nil, 1},
		{[]streamcount.WatchOption{streamcount.WithWatchBuffer(-3)}, 0},
	} {
		sub, err := streamcount.Watch(context.Background(), e, "", q, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := cap(sub.Events()); got != c.want {
			t.Errorf("event capacity %d, want %d", got, c.want)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubscriptionTeardownNoGoroutineLeaks closes subscriptions all three
// ways under -race and asserts the goroutine count returns to its baseline
// — the facade's "clean teardown" guarantee.
func TestSubscriptionTeardownNoGoroutineLeaks(t *testing.T) {
	ups := watchUpdates(t)
	p, _ := streamcount.PatternByName("triangle")
	q := streamcount.CountQuery(p, streamcount.WithTrials(400), streamcount.WithSeed(3))

	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		// Close() mid-stream.
		e, _ := watchEngine(t)
		sub, err := streamcount.Watch(context.Background(), e, "", q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Append("", ups[:200]); err != nil {
			t.Fatal(err)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sub.Err(); !errors.Is(err, streamcount.ErrWatchClosed) {
			t.Errorf("Close terminal error = %v, want ErrWatchClosed", err)
		}

		// ctx cancel: the terminal error is delivered as the final event and
		// from Err, wrapping ErrCanceled.
		ctx, cancel := context.WithCancel(context.Background())
		sub2, err := streamcount.Watch(ctx, e, "", q)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		sawTerminal := false
		for ev := range sub2.Events() {
			if ev.Err != nil {
				sawTerminal = true
				if !errors.Is(ev.Err, streamcount.ErrCanceled) {
					t.Errorf("terminal event error = %v, want ErrCanceled", ev.Err)
				}
			}
		}
		if !sawTerminal {
			t.Error("cancellation delivered no terminal event")
		}
		if err := sub2.Err(); !errors.Is(err, streamcount.ErrCanceled) {
			t.Errorf("cancel terminal error = %v, want ErrCanceled", err)
		}

		// Engine.Close: ends the event stream with ErrEngineClosed.
		sub3, err := streamcount.Watch(context.Background(), e, "", q)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		for range sub3.Events() {
		}
		if err := sub3.Err(); !errors.Is(err, streamcount.ErrEngineClosed) {
			t.Errorf("engine-close terminal error = %v, want ErrEngineClosed", err)
		}
		sub2.Close()
		sub3.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEngineSubmitErrorPaths pins the facade's error contract for SubmitOn
// and DoOn: unknown streams, closed engines and canceled contexts all
// surface as the documented sentinels through both entry points.
func TestEngineSubmitErrorPaths(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	q := streamcount.CountQuery(p, streamcount.WithTrials(500), streamcount.WithSeed(1))

	t.Run("unknown stream", func(t *testing.T) {
		e := streamcount.NewEngine(st)
		defer e.Close()
		if _, err := e.SubmitOn(context.Background(), "ghost", q); !errors.Is(err, streamcount.ErrUnknownStream) {
			t.Errorf("SubmitOn: %v, want ErrUnknownStream", err)
		}
		if _, err := streamcount.DoOn(context.Background(), e, "ghost", q); !errors.Is(err, streamcount.ErrUnknownStream) {
			t.Errorf("DoOn: %v, want ErrUnknownStream", err)
		}
	})

	t.Run("closed engine", func(t *testing.T) {
		e := streamcount.NewEngine(st)
		e.Close()
		if _, err := e.Submit(context.Background(), q); !errors.Is(err, streamcount.ErrEngineClosed) {
			t.Errorf("Submit: %v, want ErrEngineClosed", err)
		}
		if _, err := streamcount.Do(context.Background(), e, q); !errors.Is(err, streamcount.ErrEngineClosed) {
			t.Errorf("Do: %v, want ErrEngineClosed", err)
		}
	})

	t.Run("canceled context", func(t *testing.T) {
		e := streamcount.NewEngine(st)
		defer e.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := streamcount.DoOn(ctx, e, "", q)
		if !errors.Is(err, streamcount.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("DoOn canceled: %v, want ErrCanceled wrapping context.Canceled", err)
		}
		// The engine stays serviceable and the rerun is bit-identical to a
		// run that never saw a cancellation.
		want, err := streamcount.Run(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamcount.Do(context.Background(), e, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Errorf("post-cancel rerun %v != standalone %v", got.Value, want.Value)
		}
	})

	t.Run("bad query surfaces before submission", func(t *testing.T) {
		e := streamcount.NewEngine(st)
		defer e.Close()
		if _, err := streamcount.Do(context.Background(), e, streamcount.CountQuery(nil)); !errors.Is(err, streamcount.ErrBadPattern) {
			t.Errorf("nil pattern: %v, want ErrBadPattern", err)
		}
	})
}
