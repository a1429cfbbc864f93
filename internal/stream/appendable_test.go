package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"streamcount/internal/graph"
)

func mkUpdates(n int64, count int, seed int64) []Update {
	rng := rand.New(rand.NewSource(seed))
	ups := make([]Update, 0, count)
	for len(ups) < count {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v {
			continue
		}
		ups = append(ups, Update{Edge: graph.Edge{U: u, V: v}, Op: Insert})
	}
	return ups
}

func collectView(t *testing.T, v *View) []Update {
	t.Helper()
	var got []Update
	if err := v.ForEachBatch(func(batch []Update) error {
		got = append(got, batch...)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendableVersionedViews(t *testing.T) {
	a, err := NewAppendable(100, AppendableOptions{SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(100, 50, 1)
	v0, err := a.At(0)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := a.Append(all[:20])
	if err != nil || ver != 20 {
		t.Fatalf("Append: version %d err %v", ver, err)
	}
	v20, err := a.At(20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(all[20:]); err != nil {
		t.Fatal(err)
	}
	v35, err := a.At(35)
	if err != nil {
		t.Fatal(err)
	}

	if got := collectView(t, v0); len(got) != 0 {
		t.Fatalf("v0 has %d updates, want 0", len(got))
	}
	// Views are immutable: v20 replays the first 20 updates even though 30
	// more were appended after it was taken.
	if got := collectView(t, v20); !reflect.DeepEqual(got, all[:20]) {
		t.Fatalf("v20 replay mismatch")
	}
	if got := collectView(t, v35); !reflect.DeepEqual(got, all[:35]) {
		t.Fatalf("v35 replay mismatch")
	}
	// Replays are repeatable.
	if got := collectView(t, v20); !reflect.DeepEqual(got, all[:20]) {
		t.Fatalf("v20 second replay mismatch")
	}
	if v20.Len() != 20 || v20.N() != 100 || !v20.InsertOnly() {
		t.Fatalf("v20 metadata: len=%d n=%d insertOnly=%v", v20.Len(), v20.N(), v20.InsertOnly())
	}
	if _, err := a.At(51); err == nil {
		t.Fatal("At beyond version should fail")
	}
	if _, err := a.At(-1); err == nil {
		t.Fatal("At(-1) should fail")
	}
}

func TestAppendableFileBackedSegments(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAppendable(64, AppendableOptions{SegmentSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(64, 100, 2)
	if _, err := a.Append(all); err != nil {
		t.Fatal(err)
	}
	// 100 updates at segment size 16: 6 sealed segments on disk plus the
	// durable tail file holding the 4 open-tail updates.
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("got %d segment files, want 7", len(files))
	}
	got := collectView(t, a.Snapshot())
	if !reflect.DeepEqual(got, all) {
		t.Fatal("file-backed replay mismatch")
	}
	// A mid-segment view boundary slices a disk segment.
	v, err := a.At(40)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectView(t, v); !reflect.DeepEqual(got, all[:40]) {
		t.Fatal("mid-segment view replay mismatch")
	}
}

func TestAppendableValidation(t *testing.T) {
	a, err := NewAppendable(10, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Update{
		{Edge: graph.Edge{U: 3, V: 3}, Op: Insert},  // loop
		{Edge: graph.Edge{U: -1, V: 3}, Op: Insert}, // out of range
		{Edge: graph.Edge{U: 0, V: 10}, Op: Insert}, // out of range
		{Edge: graph.Edge{U: 0, V: 1}, Op: Op(7)},   // bad op
	}
	for i, bad := range cases {
		// A batch with one bad update publishes nothing.
		v, err := a.Append([]Update{{Edge: graph.Edge{U: 1, V: 2}, Op: Insert}, bad})
		if err == nil {
			t.Fatalf("case %d: bad update accepted", i)
		}
		if v != 0 || a.Version() != 0 {
			t.Fatalf("case %d: partial batch published (version %d)", i, a.Version())
		}
	}
	if _, err := NewAppendable(0, AppendableOptions{}); err == nil {
		t.Fatal("NewAppendable(0) should fail")
	}
}

func TestAppendableInsertOnlyPerPrefix(t *testing.T) {
	a, err := NewAppendable(10, AppendableOptions{SegmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ups := []Update{
		{Edge: graph.Edge{U: 0, V: 1}, Op: Insert},
		{Edge: graph.Edge{U: 1, V: 2}, Op: Insert},
		{Edge: graph.Edge{U: 0, V: 1}, Op: Delete},
		{Edge: graph.Edge{U: 2, V: 3}, Op: Insert},
	}
	if _, err := a.Append(ups); err != nil {
		t.Fatal(err)
	}
	for v, want := range map[int64]bool{0: true, 1: true, 2: true, 3: false, 4: false} {
		view, err := a.At(v)
		if err != nil {
			t.Fatal(err)
		}
		if view.InsertOnly() != want {
			t.Fatalf("At(%d).InsertOnly() = %v, want %v", v, view.InsertOnly(), want)
		}
	}
	if a.InsertOnly() {
		t.Fatal("appendable with a delete reports InsertOnly")
	}
}

func TestAppendableConcurrentAppendAndReplay(t *testing.T) {
	a, err := NewAppendable(1000, AppendableOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(1000, 4000, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(all); i += 37 {
			j := min(i+37, len(all))
			if _, err := a.Append(all[i:j]); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	// Concurrent readers: every view must replay exactly its pinned prefix.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				v := a.Snapshot()
				sl, err := Collect(v)
				if err != nil {
					t.Errorf("replay: %v", err)
					return
				}
				got := sl.Updates()
				if int64(len(got)) != v.Version() {
					t.Errorf("view at %d replayed %d updates", v.Version(), len(got))
					return
				}
				if len(got) > 0 && !reflect.DeepEqual(got, all[:len(got)]) {
					t.Errorf("view at %d replayed wrong prefix", v.Version())
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Version(); got != int64(len(all)) {
		t.Fatalf("final version %d, want %d", got, len(all))
	}
}

func TestAppendableAsStreamPinsPerPass(t *testing.T) {
	a, err := NewAppendable(10, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append([]Update{{Edge: graph.Edge{U: 0, V: 1}, Op: Insert}}); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := a.ForEachBatch(func(b []Update) error { count += len(b); return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("pass saw %d updates, want 1", count)
	}
	g, err := Materialize(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("materialized %d edges, want 1", g.M())
	}
}

func TestAppendableSegmentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ups := []Update{
		{Edge: graph.Edge{U: 5, V: 9}, Op: Insert},
		{Edge: graph.Edge{U: 9, V: 5}, Op: Delete},
	}
	path := filepath.Join(dir, "seg-test.bin")
	if err := writeSegment(osFS{}, path, ups); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(segHeaderSize + len(ups)*segRecordSize); info.Size() != want {
		t.Fatalf("segment size %d, want %d", info.Size(), want)
	}
	var got []Update
	if err := readSegmentFrom(osFS{}, path, 0, len(ups), func(batch []Update) error {
		got = append(got, batch...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ups) {
		t.Fatalf("round trip mismatch: %v != %v", got, ups)
	}
	// A truncated read (count beyond the file) reports the corruption.
	if err := readSegmentFrom(osFS{}, path, 0, len(ups)+1, func([]Update) error { return nil }); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("reading past the segment end: %v, want ErrSegmentCorrupt", err)
	}
}

func TestAppendableEvictFailureKeepsLogIntact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	a, err := NewAppendable(64, AppendableOptions{SegmentSize: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the segment directory: replace it with a regular file so
	// sealing cannot create segment files.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(64, 20, 5)
	v, err := a.Append(all)
	if !errors.Is(err, ErrEvictFailed) {
		t.Fatalf("append error = %v, want ErrEvictFailed", err)
	}
	if v != 20 {
		t.Fatalf("version %d, want 20: the batch must be fully published despite eviction failure", v)
	}
	// The log is intact and replayable from memory.
	if got := collectView(t, a.Snapshot()); !reflect.DeepEqual(got, all) {
		t.Fatal("log replay mismatch after eviction failure")
	}
}

func TestAppendableReplayErrorPropagates(t *testing.T) {
	a, err := NewAppendable(10, AppendableOptions{SegmentSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(mkUpdates(10, 6, 4)); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	calls := 0
	err = a.Snapshot().ForEachBatch(func([]Update) error {
		calls++
		return boom
	})
	if err != boom {
		t.Fatalf("got %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after error", calls)
	}
}
