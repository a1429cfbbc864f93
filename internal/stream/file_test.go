package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/graph"
)

func TestFileStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 25, 60)
	ts := WithDeletions(g, 0.5, rng)

	path := filepath.Join(t.TempDir(), "stream.txt")
	if err := WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.N() != ts.N() || fs.Len() != ts.Len() || fs.InsertOnly() != ts.InsertOnly() {
		t.Fatalf("metadata mismatch: n=%d len=%d insertOnly=%v", fs.N(), fs.Len(), fs.InsertOnly())
	}
	// Replay must match the original update sequence, twice (multi-pass).
	for pass := 0; pass < 2; pass++ {
		i := 0
		orig := ts.Updates()
		err := fs.ForEachBatch(func(batch []Update) error {
			for _, u := range batch {
				if u != orig[i] {
					t.Fatalf("pass %d update %d: %v != %v", pass, i, u, orig[i])
				}
				i++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(orig) {
			t.Fatalf("pass %d saw %d updates, want %d", pass, i, len(orig))
		}
	}
	// Materialize matches the source graph.
	got, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() {
		t.Errorf("m=%d, want %d", got.M(), g.M())
	}
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"empty":     "",
		"badheader": "zero\n",
		"badop":     "3\n* 0 1\n",
		"loop":      "3\n+ 1 1\n",
		"range":     "3\n+ 0 9\n",
		"badline":   "3\n+ x y\n",
		"toomany":   "4294967297\n+ 0 1\n",
	}
	for name, content := range cases {
		if _, err := OpenFile(write(name+".txt", content)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file: expected error")
	}
	// Comments and blank lines are accepted.
	p := write("ok.txt", "# comment\n\n3\n+ 0 1\n- 0 1\n+ 1 2\n")
	fs, err := OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 3 || fs.InsertOnly() {
		t.Errorf("len=%d insertOnly=%v", fs.Len(), fs.InsertOnly())
	}
	// graph.MaxVertices vertices is the most a header may carry: every
	// endpoint below it packs into a spill key and replays unchanged.
	if fs, err = OpenFile(write("max.txt", "4294967296\n+ 4294967295 0\n")); err != nil {
		t.Fatal(err)
	}
	if sl, err := Collect(fs); err != nil || sl.Updates()[0].Edge != (graph.Edge{U: 1<<32 - 1, V: 0}) {
		t.Errorf("header of MaxVertices: replayed %v, %v", sl, err)
	}
}

// TestFileParserErrorDetails pins the hand-rolled parser's failure paths:
// each malformed input is rejected with a message naming the offending line,
// so a bad record deep inside a multi-gigabyte stream is findable.
func TestFileParserErrorDetails(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name    string
		content string
		wantMsg string
	}{
		{"empty file", "", "empty input"},
		{"comments only", "# nothing\n\n# more nothing\n", "empty input"},
		{"truncated line", "5\n+ 0 1\n+ 3\n", "line 3: bad update"},
		{"missing second vertex", "5\n+ 2\t\n", "line 2: bad update"},
		{"bad op token", "5\n? 0 1\n", `line 2: bad op "?"`},
		{"vertex at n", "5\n+ 0 5\n", "bad edge (0,5)"},
		{"negative vertex", "5\n+ -1 2\n", "bad edge (-1,2)"},
		{"self loop", "5\n+ 3 3\n", "bad edge (3,3)"},
		{"zero header", "0\n+ 0 1\n", "bad header"},
		{"negative header", "-4\n", "bad header"},
		{"non-numeric vertex", "5\n+ a b\n", "bad update"},
	}
	for _, c := range cases {
		_, err := OpenFile(write(strings.ReplaceAll(c.name, " ", "_")+".txt", c.content))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantMsg)
		}
	}

	// A line over the cap is named like every other bad line, and the attempt
	// to read it never holds more than the cap: the buffer doubles up to it,
	// so everything allocated on the way sums to under twice the cap (plus
	// the scan's fixed block and batch when the pool has none to give).
	long := write("long_line.txt", "5\n+ 0 1\n+ 1 2\n+ 2 3\n+ 3 4"+strings.Repeat(" ", 17<<20)+"\n+ 0 2\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := OpenFile(long)
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("stream: %s line 5: line longer than 16777216 bytes", long); err == nil || err.Error() != want {
		t.Errorf("over-long line: error %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxLineBytes+1<<18 {
		t.Errorf("over-long line: the scan allocated %d bytes, over twice the %d-byte cap", got, maxLineBytes)
	}
}

// TestCollectFileBacked covers Collect on disk-backed streams: the happy
// path brings the stream in memory, and a replay that fails mid-pass (a
// spill byte went bad after OpenFile wrote it) surfaces the error instead of
// returning a short stream.
func TestCollectFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.txt")
	good := "4\n+ 0 1\n+ 1 2\n+ 2 3\n"
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := Collect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Len() != 3 || sl.N() != 4 {
		t.Fatalf("collected len=%d n=%d, want 3, 4", sl.Len(), sl.N())
	}
	// Slices pass through without copying.
	if again, err := Collect(sl); err != nil || again != sl {
		t.Errorf("Collect on a Slice should be identity, got %v, %v", again, err)
	}

	// A disk fault in the spill: the next replay (and therefore Collect) must
	// fail loudly, naming the block, instead of returning a short stream.
	flipSpillByte(t, fs, int64(packedBlockSize(3))-1)
	if _, err := Collect(fs); !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("Collect over a corrupt spill: error %v, want ErrSpillCorrupt", err)
	} else if !strings.Contains(err.Error(), "spill block 0") {
		t.Errorf("error %q does not name the bad block", err)
	}
}

// flipSpillByte inverts the spill byte at off, as a disk fault would.
func flipSpillByte(t *testing.T, f *File, off int64) {
	t.Helper()
	b := make([]byte, 1)
	if _, err := f.spill.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.spill.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestFileConcurrentReplays replays one File from several goroutines at once
// while reading its metadata; under -race this fails if a replay writes to
// the File.
func TestFileConcurrentReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyiGNM(rng, 60, 900)
	path := filepath.Join(t.TempDir(), "stream.txt")
	if err := WriteFile(path, FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				seen := int64(0)
				err := fs.ForEachBatch(func(batch []Update) error {
					for _, u := range batch {
						if u.Edge.U >= fs.N() || u.Edge.V >= fs.N() {
							t.Errorf("update %v outside n=%d", u, fs.N())
						}
					}
					seen += int64(len(batch))
					return nil
				})
				if err != nil || seen != fs.Len() {
					t.Errorf("replay: %d updates, err %v; want %d", seen, err, fs.Len())
				}
			}
		}()
	}
	wg.Wait()
}

// TestFileReplaysOpenedSnapshot pins the Stream contract on a File: every
// pass replays the sequence OpenFile parsed, update for update, whatever
// happens to the text file afterwards, and N, Len and InsertOnly never move.
// OpenFile leaves nothing under $TMPDIR: its spill is unlinked at once.
func TestFileReplaysOpenedSnapshot(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	path := filepath.Join(t.TempDir(), "stream.txt")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("5\n+ 0 1\n+ 1 2\n")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Fatalf("OpenFile left %v under TMPDIR (%v)", left, err)
	}
	replay := func() []Update {
		t.Helper()
		var got []Update
		if err := fs.ForEachBatch(func(batch []Update) error {
			got = append(got, batch...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := []Update{{Edge: graph.Edge{U: 0, V: 1}, Op: Insert}, {Edge: graph.Edge{U: 1, V: 2}, Op: Insert}}
	if got := replay(); !updatesEqual(got, want) {
		t.Fatalf("first replay %v, want %v", got, want)
	}
	for _, edit := range []struct{ name, content string }{
		{"header", "6\n+ 0 1\n+ 1 2\n"},
		{"longer", "5\n+ 0 1\n+ 1 2\n+ 2 3\n"},
		{"shorter", "5\n+ 0 1\n"},
		{"same-length edge edit", "5\n+ 0 3\n+ 1 2\n"},
		{"op flipped", "5\n- 0 1\n+ 1 2\n"},
		{"deleted", ""},
	} {
		if edit.name == "deleted" {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else {
			write(edit.content)
		}
		for pass := 0; pass < 2; pass++ {
			if got := replay(); !updatesEqual(got, want) {
				t.Errorf("%s, pass %d: replayed %v, want %v", edit.name, pass, got, want)
			}
		}
		if fs.N() != 5 || fs.Len() != 2 || !fs.InsertOnly() {
			t.Errorf("%s: metadata moved to n=%d len=%d insertOnly=%v", edit.name, fs.N(), fs.Len(), fs.InsertOnly())
		}
	}
}

// FuzzFileSpill holds the packed-block decoder to its encoder on arbitrary
// bytes, also behind a valid checksum (sealed): a decode either fails with
// ErrSpillCorrupt and no update, or yields updates that re-encode to exactly
// the block's bytes. It decodes into the batch it is given, so no count field
// makes it allocate.
func FuzzFileSpill(f *testing.F) {
	for _, count := range []int{0, 1, 7, 8, 9, DefaultBatchSize} {
		f.Add(appendPackedBlock(nil, mixedUpdates(graph.MaxVertices, count, int64(count))), false)
	}
	f.Add(appendPackedBlock(nil, mixedUpdates(graph.MaxVertices, DefaultBatchSize+1, 1)), false) // one over the cap
	batch := make([]Update, 0, DefaultBatchSize)
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed && len(data) >= packedHeaderSize {
			if size := packedBlockSize(int(min(binary.LittleEndian.Uint32(data), DefaultBatchSize))); size <= len(data) {
				data = bytes.Clone(data)
				binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(data[packedHeaderSize:size], crcTable))
			}
		}
		got, size, err := decodePackedBlock(data, batch)
		if err != nil {
			if !errors.Is(err, ErrSpillCorrupt) || len(got) != 0 {
				t.Fatalf("decode of %x: %d updates and error %v, want none and ErrSpillCorrupt", data, len(got), err)
			}
			return
		}
		if len(got) > 0 && &got[0] != &batch[:1][0] {
			t.Fatalf("decode of %d updates allocated a batch", len(got))
		}
		if re := appendPackedBlock(nil, got); !bytes.Equal(re, data[:size]) {
			t.Fatalf("block %x re-encodes to %x", data[:size], re)
		}
	})
}
