package stream

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamcount/internal/gen"
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
// path brings the stream in memory, and a replay that fails mid-pass (the
// file was corrupted after OpenFile validated it) surfaces the error instead
// of returning a short stream.
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

	// Corrupt the file underneath the already-validated stream: the next
	// replay (and therefore Collect) must fail loudly.
	bad := "4\n+ 0 1\n+ 9 2\n+ 2 3\n"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(fs); err == nil {
		t.Fatal("Collect over a mid-replay failure should error")
	} else if !strings.Contains(err.Error(), "bad edge (9,2)") {
		t.Errorf("error %q does not name the bad record", err)
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

// TestFileReplayDetectsChangedFile pins that a replay streams what OpenFile
// validated or fails: never a different header or a different update count.
func TestFileReplayDetectsChangedFile(t *testing.T) {
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
	nop := func([]Update) error { return nil }
	for name, content := range map[string]string{
		"header":  "6\n+ 0 1\n+ 1 2\n",
		"longer":  "5\n+ 0 1\n+ 1 2\n+ 2 3\n",
		"shorter": "5\n+ 0 1\n",
	} {
		write(content)
		if err := fs.ForEachBatch(nop); err == nil || !strings.Contains(err.Error(), "the file changed") {
			t.Errorf("%s changed: replay error %v, want a \"the file changed\" error", name, err)
		}
		if fs.N() != 5 || fs.Len() != 2 {
			t.Errorf("%s changed: metadata moved to n=%d len=%d", name, fs.N(), fs.Len())
		}
	}
	write("5\n+ 0 1\n+ 1 2\n")
	if err := fs.ForEachBatch(nop); err != nil {
		t.Errorf("restored file: %v", err)
	}
}
