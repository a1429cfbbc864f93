package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"streamcount/internal/pattern"
)

// cancelRefJob is the fixed-seed query used by every cancellation
// determinism test, including the cross-process child.
func cancelRefJob() Job {
	return Job{Kind: JobEstimate, Config: Config{Pattern: pattern.Triangle(), Trials: 2500, Seed: 17}}
}

// fingerprint renders a CountResult bit-exactly (the float as raw IEEE 754
// bits), so two processes can compare results without formatting loss.
func fingerprint(r *CountResult) string {
	return fmt.Sprintf("%016x %d %d %d %d %d",
		math.Float64bits(r.Value), r.M, r.Passes, r.Queries, r.SpaceWords, r.Trials)
}

// TestSessionCancelMidReplay: canceling the session context mid-replay fails
// every pending job with ErrCanceled, and a fresh session over the same
// stream then produces a bit-identical result to a never-canceled run.
func TestSessionCancelMidReplay(t *testing.T) {
	sl := sessionWorkload(t)
	want, err := runCount(sl, cancelRefJob())
	if err != nil {
		t.Fatal(err)
	}

	g := newGatedStream(sl)
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSession(g)
	h1 := s.Submit(cancelRefJob())
	h2 := s.Submit(Job{Kind: JobEstimate, Config: Config{Pattern: pattern.Triangle(), Trials: 1000, Seed: 99}})
	runErr := make(chan error, 1)
	go func() { runErr <- s.RunContext(ctx) }()
	<-g.Started // the shared pass is in flight
	cancel()
	g.open()
	if err := <-runErr; !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunContext error = %v, want ErrCanceled", err)
	}
	for i, h := range []*JobHandle{h1, h2} {
		if err := h.Result().Err; !errors.Is(err, ErrCanceled) {
			t.Errorf("job %d error = %v, want ErrCanceled", i, err)
		}
		if !errors.Is(h.Result().Err, context.Canceled) {
			t.Errorf("job %d error should also match context.Canceled, got %v", i, h.Result().Err)
		}
	}

	// The stream is left replayable: rerunning the identical query on a
	// fresh session is bit-identical to the never-canceled reference.
	again, err := runCount(sl, cancelRefJob())
	if err != nil {
		t.Fatal(err)
	}
	if *again != *want {
		t.Errorf("post-cancel rerun %+v != uncancelled reference %+v", *again, *want)
	}
}

// TestEngineCancelMidReplayStaysServiceable: cancel a query's context while
// its generation is mid-replay — the generation aborts (no submitter is
// listening), the Submit returns ErrCanceled, and the engine then serves the
// identical query bit-identically to an uncancelled run.
func TestEngineCancelMidReplayStaysServiceable(t *testing.T) {
	sl := sessionWorkload(t)
	want, err := runCount(sl, cancelRefJob())
	if err != nil {
		t.Fatal(err)
	}

	g := newGatedStream(sl)
	e := NewEngine(g, EngineOptions{})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, cancelRefJob())
		sub <- err
	}()
	<-g.Started // the generation's first pass is in flight
	cancel()
	if err := <-sub; !errors.Is(err, ErrCanceled) {
		t.Fatalf("Submit error = %v, want ErrCanceled", err)
	}
	// Let the aborted replay drain, then resubmit the identical query.
	g.open()
	h, err := e.Submit(context.Background(), cancelRefJob())
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("post-cancel resubmit %+v != uncancelled reference %+v", *got, *want)
	}
}

// TestCancelDeterminismChild is the cross-process half of
// TestCancelDeterminismCrossProcess: in child mode it runs the reference
// query (no cancellation anywhere in the process) and prints its bit-exact
// fingerprint.
func TestCancelDeterminismChild(t *testing.T) {
	if os.Getenv("STREAMCOUNT_CANCEL_CHILD") != "1" {
		t.Skip("child mode only (driven by TestCancelDeterminismCrossProcess)")
	}
	sl := sessionWorkload(t)
	est, err := runCount(sl, cancelRefJob())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("CANCELCHILD %s\n", fingerprint(est))
}

// TestCancelDeterminismCrossProcess asserts the determinism contract across
// process boundaries: an engine that was canceled mid-replay and then served
// the identical query produces the same bits as a pristine process that
// never canceled anything. Map-iteration-order regressions only show up
// cross-process (each process randomizes map order differently), which is
// why the in-process assertions above are not enough.
func TestCancelDeterminismCrossProcess(t *testing.T) {
	if os.Getenv("STREAMCOUNT_CANCEL_CHILD") == "1" {
		t.Skip("already in child mode")
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}

	// In this process: cancel mid-replay, then rerun the identical query.
	sl := sessionWorkload(t)
	g := newGatedStream(sl)
	e := NewEngine(g, EngineOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	sub := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, cancelRefJob())
		sub <- err
	}()
	<-g.Started
	cancel()
	if err := <-sub; !errors.Is(err, ErrCanceled) {
		t.Fatalf("Submit error = %v, want ErrCanceled", err)
	}
	g.open()
	h, err := e.Submit(context.Background(), cancelRefJob())
	if err != nil {
		t.Fatal(err)
	}
	est, err := h.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	mine := fingerprint(est)
	e.Close()

	// In a separate process: the same query, never canceled.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestCancelDeterminismChild$", "-test.v")
	cmd.Env = append(os.Environ(), "STREAMCOUNT_CANCEL_CHILD=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
	theirs := ""
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "CANCELCHILD "); ok {
			theirs = rest
			break
		}
	}
	if theirs == "" {
		t.Fatalf("child printed no fingerprint:\n%s", out)
	}
	if mine != theirs {
		t.Errorf("cross-process mismatch after cancellation:\n  this process:  %s\n  child process: %s", mine, theirs)
	}
}
