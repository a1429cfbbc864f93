package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"streamcount/internal/graph"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// appendableWorkload returns the session workload's updates plus an empty
// appendable log to feed them into.
func appendableWorkload(t *testing.T) (*stream.Appendable, []stream.Update) {
	t.Helper()
	sl := sessionWorkload(t)
	a, err := stream.NewAppendable(sl.N(), stream.AppendableOptions{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return a, sl.Updates()
}

// TestEngineGenerationPinning is the live-ingestion contract: a query served
// by a generation pinned at version v returns the bit-identical result of a
// standalone run over the length-v prefix, and later appends change later
// generations only.
func TestEngineGenerationPinning(t *testing.T) {
	a, ups := appendableWorkload(t)
	cut := len(ups) / 2
	e := NewEngine(a, EngineOptions{})
	defer e.Close()

	if _, err := e.Append(DefaultStream, ups[:cut]); err != nil {
		t.Fatal(err)
	}
	h1, err := e.Submit(context.Background(), engineTestJob(5))
	if err != nil {
		t.Fatal(err)
	}
	if h1.StreamVersion() != int64(cut) {
		t.Fatalf("first query pinned version %d, want %d", h1.StreamVersion(), cut)
	}

	if v, err := e.Append(DefaultStream, ups[cut:]); err != nil || v != int64(len(ups)) {
		t.Fatalf("second append: version %d err %v", v, err)
	}
	h2, err := e.Submit(context.Background(), engineTestJob(5))
	if err != nil {
		t.Fatal(err)
	}
	if h2.StreamVersion() != int64(len(ups)) {
		t.Fatalf("second query pinned version %d, want %d", h2.StreamVersion(), len(ups))
	}

	for _, tc := range []struct {
		h *JobHandle
		v int64
	}{{h1, int64(cut)}, {h2, int64(len(ups))}} {
		view, err := a.At(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunJob(context.Background(), view, engineTestJob(5))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := tc.h.Estimate()
		w, _ := want.Estimate()
		if got.Value != w.Value || got.M != w.M || got.Trials != w.Trials {
			t.Errorf("version %d: engine %+v != standalone %+v", tc.v, *got, *w)
		}
	}
	// The two prefixes genuinely differ, so pinning is observable.
	e1, _ := h1.Estimate()
	e2, _ := h2.Estimate()
	if e1.M == e2.M {
		t.Error("prefix pinning not observable: both generations saw the same edge count")
	}
}

// TestEngineDerivedBudgetUsesPinnedVersion checks the default edge bound:
// a derived trial budget resolves against the generation's pinned prefix
// length, so engine-served and standalone runs at the same version derive
// the same budget no matter when the query was submitted.
func TestEngineDerivedBudgetUsesPinnedVersion(t *testing.T) {
	a, ups := appendableWorkload(t)
	e := NewEngine(a, EngineOptions{})
	defer e.Close()
	if _, err := e.Append(DefaultStream, ups); err != nil {
		t.Fatal(err)
	}
	job := Job{Kind: JobEstimate, Config: Config{
		Pattern:    pattern.Triangle(),
		Epsilon:    0.5,
		LowerBound: 500,
		Seed:       9,
	}}
	h, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	view, err := a.At(h.StreamVersion())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunJob(context.Background(), view, job)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.Estimate()
	w, _ := want.Estimate()
	if got.Trials != w.Trials || got.Value != w.Value {
		t.Errorf("engine %+v != standalone %+v", *got, *w)
	}
	wantTrials := TrialsFor(int64(len(ups)), pattern.Triangle().Rho(), 0.5, 500)
	if got.Trials != wantTrials {
		t.Errorf("derived trials %d, want %d (from pinned length %d)", got.Trials, wantTrials, len(ups))
	}
}

// TestEngineConcurrentIngestAndQuery races appenders against queriers and
// verifies every result against a standalone run over the prefix its
// generation pinned. The prefix at any version is unique — appends are
// serialized by the log — so the pinned version fully determines the result.
func TestEngineConcurrentIngestAndQuery(t *testing.T) {
	a, ups := appendableWorkload(t)
	e := NewEngine(a, EngineOptions{})
	defer e.Close()

	const chunk = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(ups); i += chunk {
			if _, err := e.Append(DefaultStream, ups[i:min(i+chunk, len(ups))]); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()

	type res struct {
		seed    int64
		version int64
		value   float64
		m       int64
	}
	results := make(chan res, 8)
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h, err := e.Submit(context.Background(), engineTestJob(seed))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			est, _ := h.Estimate()
			results <- res{seed: seed, version: h.StreamVersion(), value: est.Value, m: est.M}
		}(int64(q))
	}
	wg.Wait()
	close(results)

	for r := range results {
		view, err := a.At(r.version)
		if err != nil {
			t.Fatal(err)
		}
		h, err := RunJob(context.Background(), view, engineTestJob(r.seed))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := h.Estimate()
		if math.Float64bits(want.Value) != math.Float64bits(r.value) || want.M != r.m {
			t.Errorf("seed %d at version %d: engine (%v, m=%d) != standalone (%v, m=%d)",
				r.seed, r.version, r.value, r.m, want.Value, want.M)
		}
	}
}

func TestEngineAppendErrors(t *testing.T) {
	sl := sessionWorkload(t)
	e := NewEngine(sl, EngineOptions{})
	one := []stream.Update{{Edge: graph.Edge{U: 0, V: 1}, Op: stream.Insert}}

	if _, err := e.Append("nope", one); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("unknown stream error = %v, want ErrUnknownStream", err)
	}
	if _, err := e.Append(DefaultStream, one); !errors.Is(err, ErrNotAppendable) {
		t.Errorf("static stream error = %v, want ErrNotAppendable", err)
	}
	if v, err := e.VersionOf(DefaultStream); err != nil || v != sl.Len() {
		t.Errorf("VersionOf static = (%d, %v), want (%d, nil)", v, err, sl.Len())
	}
	if _, err := e.VersionOf("nope"); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("VersionOf unknown error = %v, want ErrUnknownStream", err)
	}

	a, err := stream.NewAppendable(10, stream.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("live", a); err != nil {
		t.Fatal(err)
	}
	bad := []stream.Update{{Edge: one[0].Edge, Op: stream.Op(9)}}
	if _, err := e.Append("live", bad); err == nil {
		t.Error("invalid update accepted")
	}
	e.Close()
	if _, err := e.Append("live", one); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed engine error = %v, want ErrEngineClosed", err)
	}
}
