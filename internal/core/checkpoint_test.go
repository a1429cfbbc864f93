package core

import (
	"context"
	"testing"
	"time"

	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// collectEvent reads one event with a timeout, failing the test on a closed
// channel or a hang.
func collectEvent(t *testing.T, w *Watch) WatchEvent {
	t.Helper()
	select {
	case ev, ok := <-w.Events():
		if !ok {
			t.Fatalf("watch ended early: %v", w.Err())
		}
		return ev
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for watch event")
	}
	panic("unreachable")
}

// assertEventMatchesStandalone checks the determinism contract for one
// event: bit-identical to a standalone run over the version-v prefix at
// the derived seed. This is the same oracle the cold path is held to, so
// it proves fast-path (checkpoint-served) events are indistinguishable.
func assertEventMatchesStandalone(t *testing.T, app *stream.Appendable, j Job, ev WatchEvent) {
	t.Helper()
	got, err := ev.Handle.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	view, err := app.At(ev.Version)
	if err != nil {
		t.Fatal(err)
	}
	j.Config.Seed = WatchSeedAt(j.Config.Seed, ev.Version)
	ref, err := runCount(view, j)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ref {
		t.Errorf("event at version %d: %+v != standalone %+v", ev.Version, *got, *ref)
	}
}

// TestWatchCheckpointFastEqualsCold runs the same every-version watch over
// identically-fed lanes on two engines — checkpoint cache enabled and
// disabled — and asserts the two event transcripts are bit-identical, that
// the enabled engine actually served from the cache (hits after the first
// build), and that the disabled engine ran every evaluation cold.
func TestWatchCheckpointFastEqualsCold(t *testing.T) {
	ups := watchWorkload(t)
	j := watchRefJob()

	appFast, err := stream.NewAppendable(200, stream.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast := NewEngine(appFast, EngineOptions{})
	defer fast.Close()

	appCold, err := stream.NewAppendable(200, stream.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(appCold, EngineOptions{WatchCheckpointBytes: -1})
	defer cold.Close()

	wf, err := fast.Watch(context.Background(), DefaultStream, j, WatchOptions{EveryVersion: true, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	wc, err := cold.Watch(context.Background(), DefaultStream, j, WatchOptions{EveryVersion: true, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	cuts := []int{len(ups) / 4, len(ups) / 2, 3 * len(ups) / 4, len(ups)}
	prev := 0
	for i, cut := range cuts {
		vf, err := fast.Append(DefaultStream, ups[prev:cut])
		if err != nil {
			t.Fatal(err)
		}
		vc, err := cold.Append(DefaultStream, ups[prev:cut])
		if err != nil {
			t.Fatal(err)
		}
		if vf != vc {
			t.Fatalf("append %d: versions diverge (%d vs %d)", i, vf, vc)
		}
		prev = cut

		evf := collectEvent(t, wf)
		evc := collectEvent(t, wc)
		if evf.Version != vf || evc.Version != vc {
			t.Fatalf("event %d versions: fast %d cold %d, want %d", i, evf.Version, evc.Version, vf)
		}
		if evf.Seq != int64(i) || evc.Seq != int64(i) {
			t.Errorf("event %d seqs: fast %d cold %d", i, evf.Seq, evc.Seq)
		}
		gf, err := evf.Handle.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		gc, err := evc.Handle.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if *gf != *gc {
			t.Errorf("event %d: fast %+v != cold %+v", i, *gf, *gc)
		}
		assertEventMatchesStandalone(t, appFast, watchRefJob(), evf)
	}

	fs := wf.CheckpointStats()
	if fs.CheckpointMisses != 1 {
		t.Errorf("fast watch misses = %d, want 1 (initial build)", fs.CheckpointMisses)
	}
	if want := int64(len(cuts) - 1); fs.CheckpointHits != want {
		t.Errorf("fast watch hits = %d, want %d", fs.CheckpointHits, want)
	}
	if fs.ColdReplays != 0 {
		t.Errorf("fast watch cold replays = %d, want 0", fs.ColdReplays)
	}
	cs := wc.CheckpointStats()
	if cs.CheckpointHits != 0 || cs.CheckpointMisses != 0 {
		t.Errorf("cold watch touched the cache: %+v", cs)
	}
	if want := int64(len(cuts)); cs.ColdReplays != want {
		t.Errorf("cold watch cold replays = %d, want %d", cs.ColdReplays, want)
	}

	es := fast.WatchCheckpointStats()
	if es.CapacityBytes != DefaultWatchCheckpointBytes {
		t.Errorf("capacity = %d, want default %d", es.CapacityBytes, DefaultWatchCheckpointBytes)
	}
	if es.ResidentBytes <= 0 {
		t.Errorf("resident bytes = %d, want > 0 with a live index", es.ResidentBytes)
	}
	if es.Hits != fs.CheckpointHits || es.Misses != fs.CheckpointMisses {
		t.Errorf("engine stats %+v disagree with watch stats %+v", es, fs)
	}
	if off := cold.WatchCheckpointStats(); off != (WatchCheckpointStats{}) {
		t.Errorf("disabled cache reports %+v, want zeros", off)
	}
}

// indexBytesFor measures the resident size of a fully-built prefix index
// over the given updates, for sizing cache capacities in tests.
func indexBytesFor(t *testing.T, n int64, ups []stream.Update) int64 {
	t.Helper()
	sl, err := stream.NewSlice(n, ups)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := transform.NewPrefixIndex(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.ForEachBatch(ix.Extend); err != nil {
		t.Fatal(err)
	}
	return ix.Bytes()
}

// TestWatchCheckpointEviction bounds the cache below two lanes' combined
// index size, alternates appends across both lanes, and asserts that LRU
// eviction churns (evictions and repeat misses observed) while every
// post-eviction event stays bit-identical to its standalone reference.
func TestWatchCheckpointEviction(t *testing.T) {
	ups := watchWorkload(t)
	full := indexBytesFor(t, 200, ups)
	def, err := stream.NewAppendable(200, stream.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One full lane index fits; two cannot coexist.
	e := NewEngine(def, EngineOptions{WatchCheckpointBytes: full + full/2})
	defer e.Close()

	lanes := []string{"a", "b"}
	apps := make(map[string]*stream.Appendable, len(lanes))
	watches := make(map[string]*Watch, len(lanes))
	for _, name := range lanes {
		app, err := stream.NewAppendable(200, stream.AppendableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(name, app); err != nil {
			t.Fatal(err)
		}
		apps[name] = app
		w, err := e.Watch(context.Background(), name, watchRefJob(), WatchOptions{EveryVersion: true, Buffer: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		watches[name] = w
	}

	// Front-load the bulk of the stream so both indexes are near full size
	// from the first event on; the small follow-up appends then force the
	// two entries to evict each other in turn.
	cuts := []int{4 * len(ups) / 5, 17 * len(ups) / 20, 9 * len(ups) / 10, 19 * len(ups) / 20, len(ups)}
	prev := 0
	for _, cut := range cuts {
		for _, name := range lanes {
			v, err := e.Append(name, ups[prev:cut])
			if err != nil {
				t.Fatal(err)
			}
			ev := collectEvent(t, watches[name])
			if ev.Version != v {
				t.Fatalf("lane %s event at version %d, want %d", name, ev.Version, v)
			}
			assertEventMatchesStandalone(t, apps[name], watchRefJob(), ev)
		}
		prev = cut
	}

	es := e.WatchCheckpointStats()
	if es.Evictions == 0 {
		t.Errorf("no evictions with capacity %d < 2 indexes of %d bytes", full+full/2, full)
	}
	if es.ResidentBytes > es.CapacityBytes {
		t.Errorf("resident %d exceeds capacity %d", es.ResidentBytes, es.CapacityBytes)
	}
	for _, name := range lanes {
		st := watches[name].CheckpointStats()
		if st.CheckpointMisses < 2 {
			t.Errorf("lane %s misses = %d, want >= 2 (initial build plus a post-eviction rebuild)", name, st.CheckpointMisses)
		}
		if st.ColdReplays != 0 {
			t.Errorf("lane %s cold replays = %d, want 0 (eviction falls back to rebuild, not cold)", name, st.ColdReplays)
		}
	}
}

// TestWatchCheckpointLaneDisable bounds the cache below a single lane's
// index: the first evaluation builds and immediately discards the index
// (counted as a miss plus an eviction), the lane is disabled, and every
// later evaluation runs cold — all still bit-identical to standalone runs.
func TestWatchCheckpointLaneDisable(t *testing.T) {
	ups := watchWorkload(t)
	app, err := stream.NewAppendable(200, stream.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(app, EngineOptions{WatchCheckpointBytes: 1024})
	defer e.Close()

	w, err := e.Watch(context.Background(), DefaultStream, watchRefJob(), WatchOptions{EveryVersion: true, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	cuts := []int{len(ups) / 3, 2 * len(ups) / 3, len(ups)}
	prev := 0
	for _, cut := range cuts {
		v, err := e.Append(DefaultStream, ups[prev:cut])
		if err != nil {
			t.Fatal(err)
		}
		prev = cut
		ev := collectEvent(t, w)
		if ev.Version != v {
			t.Fatalf("event at version %d, want %d", ev.Version, v)
		}
		assertEventMatchesStandalone(t, app, watchRefJob(), ev)
	}

	st := w.CheckpointStats()
	if st.CheckpointMisses != 1 {
		t.Errorf("misses = %d, want exactly 1 (the build that tripped the bound)", st.CheckpointMisses)
	}
	if st.CheckpointHits != 0 {
		t.Errorf("hits = %d, want 0 (nothing stays resident)", st.CheckpointHits)
	}
	if want := int64(len(cuts) - 1); st.ColdReplays != want {
		t.Errorf("cold replays = %d, want %d after the lane is disabled", st.ColdReplays, want)
	}
	es := e.WatchCheckpointStats()
	if es.Evictions == 0 {
		t.Error("disabling the lane must count as an eviction")
	}
	if es.ResidentBytes != 0 {
		t.Errorf("resident bytes = %d, want 0 after the only entry was dropped", es.ResidentBytes)
	}
}
