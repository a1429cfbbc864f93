package stream

import (
	"bufio"
	"fmt"
	"os"

	"streamcount/internal/graph"
)

// File is a Stream replayed from a file on every pass, so multi-pass
// algorithms can process streams that do not fit in memory. The format is
// the one cmd/streamcount reads: a header line "n" followed by update lines
// "+ u v" or "- u v"; blank lines and '#' comments are ignored.
//
// A File is immutable once opened, so any number of goroutines may replay it
// at once. A replay that finds a different header or update count than
// OpenFile validated fails: the file changed under a multi-pass algorithm.
type File struct {
	path    string
	n       int64
	length  int64
	inserts bool
}

// OpenFile validates the file with one full scan and returns the stream.
func OpenFile(path string) (*File, error) {
	f := &File{path: path, inserts: true}
	var err error
	f.n, f.length, err = scanFile(path, 0, func(batch []Update) error {
		for _, u := range batch {
			if u.Op == Delete {
				f.inserts = false
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// N implements Stream.
func (f *File) N() int64 { return f.n }

// Len implements Stream.
func (f *File) Len() int64 { return f.length }

// InsertOnly implements Stream.
func (f *File) InsertOnly() bool { return f.inserts }

// ForEach implements Stream as a thin wrapper over ForEachBatch.
func (f *File) ForEach(fn func(Update) error) error {
	return f.ForEachBatch(func(batch []Update) error {
		for _, u := range batch {
			if err := fn(u); err != nil {
				return err
			}
		}
		return nil
	})
}

// ForEachBatch implements Stream: each call re-reads the file (one pass),
// parsing updates into a reusable buffer flushed every DefaultBatchSize
// updates. The batch slice is invalidated by the next callback.
func (f *File) ForEachBatch(fn func([]Update) error) error {
	_, length, err := scanFile(f.path, f.n, fn)
	if err == nil && length != f.length {
		err = fmt.Errorf("stream: %s: replay read %d updates, OpenFile read %d: the file changed", f.path, length, f.length)
	}
	return err
}

// scanFile parses the file at path once, handing its updates to fn in
// batches, and returns the header's vertex count and the number of updates.
// A non-zero wantN is the vertex count the header must still carry.
func scanFile(path string, wantN int64, fn func([]Update) error) (n, length int64, err error) {
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
		txt := trimBytes(sc.Bytes())
		if len(txt) == 0 || txt[0] == '#' {
			continue
		}
		if !gotHeader {
			field := txt
			if sp := indexSpace(field); sp >= 0 {
				field = field[:sp]
			}
			var ok bool
			n, ok = parseInt(field)
			if !ok || n <= 0 {
				return 0, 0, fmt.Errorf("stream: %s line %d: bad header %q", path, line, txt)
			}
			if wantN != 0 && n != wantN {
				return 0, 0, fmt.Errorf("stream: %s line %d: header says %d vertices, OpenFile read %d: the file changed", path, line, n, wantN)
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
		rest := trimBytes(txt[1:])
		sp := indexSpace(rest)
		if sp < 0 {
			return 0, 0, fmt.Errorf("stream: %s line %d: bad update %q", path, line, txt)
		}
		u, ok1 := parseInt(rest[:sp])
		v, ok2 := parseInt(trimBytes(rest[sp+1:]))
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

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// trimBytes trims ASCII whitespace in place (no allocation).
func trimBytes(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// indexSpace returns the index of the first ASCII whitespace byte, or -1.
func indexSpace(b []byte) int {
	for i, c := range b {
		if isSpace(c) {
			return i
		}
	}
	return -1
}

// parseInt parses a decimal int64 from bytes without allocating, with the
// same accept set strconv.ParseInt(s, 10, 64) has on this format's inputs
// (optional sign, digits, overflow rejected).
func parseInt(b []byte) (int64, bool) {
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

// WriteFile writes a stream in the File format.
func WriteFile(path string, s Stream) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	w := bufio.NewWriter(fh)
	if _, err := fmt.Fprintf(w, "%d\n", s.N()); err != nil {
		return err
	}
	err = s.ForEach(func(u Update) error {
		_, werr := fmt.Fprintf(w, "%s %d %d\n", u.Op, u.Edge.U, u.Edge.V)
		return werr
	})
	if err != nil {
		return err
	}
	return w.Flush()
}
