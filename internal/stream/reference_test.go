package stream

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamcount/internal/graph"
)

// referenceScanFile is the update-file parser as it was before the block
// reader, kept as the equivalence reference: a bufio.Scanner splits the lines
// and every line is trimmed, split and parsed by separate byte sweeps. Its one
// later change is the header cap of graph.MaxVertices vertices. It parses the
// file at path once, handing its updates to fn in batches, and returns the
// header's vertex count and the number of updates.
func referenceScanFile(path string, fn func([]Update) error) (n, length int64, err error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	// The batch buffer is per-scan, not per-stream, so concurrent replays of
	// one File stay independent; one allocation per pass is noise next to
	// the file I/O.
	batch := make([]Update, 0, DefaultBatchSize)
	line := 0
	gotHeader := false
	for sc.Scan() {
		// Lines are parsed straight from the scanner's byte buffer: a replay
		// touches every line of the file once per pass, and materializing each
		// as a string dominated the pass engine's allocation profile. Only the
		// error paths convert to strings.
		line++
		txt := referenceTrimBytes(sc.Bytes())
		if len(txt) == 0 || txt[0] == '#' {
			continue
		}
		if !gotHeader {
			field := txt
			if sp := referenceIndexSpace(field); sp >= 0 {
				field = field[:sp]
			}
			var ok bool
			n, ok = referenceParseInt(field)
			if !ok || n <= 0 {
				return 0, 0, fmt.Errorf("stream: %s line %d: bad header %q", path, line, txt)
			}
			if n > graph.MaxVertices {
				return 0, 0, fmt.Errorf("stream: %s line %d: header says %d vertices, over %d", path, line, n, int64(graph.MaxVertices))
			}
			gotHeader = true
			continue
		}
		o := Insert
		switch txt[0] {
		case '+':
		case '-':
			o = Delete
		default:
			return 0, 0, fmt.Errorf("stream: %s line %d: bad op %q", path, line, txt[:1])
		}
		rest := referenceTrimBytes(txt[1:])
		sp := referenceIndexSpace(rest)
		if sp < 0 {
			return 0, 0, fmt.Errorf("stream: %s line %d: bad update %q", path, line, txt)
		}
		u, ok1 := referenceParseInt(rest[:sp])
		v, ok2 := referenceParseInt(referenceTrimBytes(rest[sp+1:]))
		if !ok1 || !ok2 {
			return 0, 0, fmt.Errorf("stream: %s line %d: bad update %q", path, line, txt)
		}
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			return 0, 0, fmt.Errorf("stream: %s line %d: bad edge (%d,%d)", path, line, u, v)
		}
		batch = append(batch, Update{Edge: graph.Edge{U: u, V: v}, Op: o})
		if len(batch) == DefaultBatchSize {
			length += int64(len(batch))
			if err := fn(batch); err != nil {
				return 0, 0, err
			}
			batch = batch[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if !gotHeader {
		return 0, 0, fmt.Errorf("stream: %s: empty input", path)
	}
	if len(batch) > 0 {
		length += int64(len(batch))
		if err := fn(batch); err != nil {
			return 0, 0, err
		}
	}
	return n, length, nil
}

func referenceIsSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// referenceTrimBytes trims ASCII whitespace in place (no allocation).
func referenceTrimBytes(b []byte) []byte {
	for len(b) > 0 && referenceIsSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && referenceIsSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// referenceIndexSpace returns the index of the first ASCII whitespace byte, or -1.
func referenceIndexSpace(b []byte) int {
	for i, c := range b {
		if referenceIsSpace(c) {
			return i
		}
	}
	return -1
}

// referenceParseInt parses a decimal int64 from bytes without allocating, with the
// same accept set strconv.ParseInt(s, 10, 64) has on this format's inputs
// (optional sign, digits, overflow rejected).
func referenceParseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}

// scanTranscript is everything a scan lets its caller observe: the batches in
// order (boundaries included), the header count and length, and the error.
type scanTranscript struct {
	batches   [][]Update
	n, length int64
	err       string
}

func transcribe(scan func(string, func([]Update) error) (int64, int64, error), path string) scanTranscript {
	var tr scanTranscript
	var err error
	tr.n, tr.length, err = scan(path, func(batch []Update) error {
		tr.batches = append(tr.batches, slices.Clone(batch))
		return nil
	})
	if err != nil {
		tr.err = err.Error()
	}
	return tr
}

// FuzzScanFile holds the block-reading parser to the reference on arbitrary
// bytes: the same (n, length), the same updates batch boundary for batch
// boundary, or an error with the same text — except that a line over the cap
// is now reported with its path and line number instead of the scanner's bare
// "token too long".
func FuzzScanFile(f *testing.F) {
	f.Add([]byte("3\n+ 0 1\n- 0 1\n+ 1 2\n"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := transcribe(referenceScanFile, path)
		got := transcribe(scanFile, path)
		if want.err == bufio.ErrTooLong.Error() {
			if !strings.Contains(got.err, "line longer than") {
				t.Fatalf("over-long line: error %q", got.err)
			}
			want.err, got.err = "", ""
			want.n, want.length, got.n, got.length = 0, 0, 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan of %q:\n got %+v\nwant %+v", data, got, want)
		}
	})
}

// TestScanFileLineCap pins the cap to the byte: both parsers take a line of
// maxLineBytes-1 bytes and refuse one of maxLineBytes, with or without a
// final newline.
func TestScanFileLineCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cap.txt")
	for _, tail := range []string{"\n", ""} {
		for _, size := range []int{maxLineBytes - 1, maxLineBytes} {
			content := "3\n+ 0 1\n#" + strings.Repeat("x", size-1) + tail
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			want, got := transcribe(referenceScanFile, path), transcribe(scanFile, path)
			if tooLong := size == maxLineBytes; tooLong != (want.err == bufio.ErrTooLong.Error()) || tooLong != strings.Contains(got.err, "line 3: line longer than") {
				t.Errorf("%d-byte line, final newline %q: reference error %q, scan error %q", size, tail, want.err, got.err)
			}
			if size < maxLineBytes && !reflect.DeepEqual(got, want) {
				t.Errorf("%d-byte line, final newline %q: got %+v, want %+v", size, tail, got, want)
			}
		}
	}
}
