package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"

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

// ForEachBatch implements Stream: each call re-reads the file (one pass),
// parsing updates into a pooled buffer flushed every DefaultBatchSize
// updates. The batch slice is invalidated by the next callback and by the
// end of the pass, when the buffer goes back to the pool.
func (f *File) ForEachBatch(fn func([]Update) error) error {
	_, length, err := scanFile(f.path, f.n, fn)
	if err == nil && length != f.length {
		err = fmt.Errorf("stream: %s: replay read %d updates, OpenFile read %d: the file changed", f.path, length, f.length)
	}
	return err
}

const (
	scanBlock    = 1 << 16 // the read buffer a scan starts with
	maxLineBytes = 1 << 24 // the longest line a scan accepts, so the most its buffer grows to
)

// fileScan is one scan's state between lines and its working memory: the
// block the file is read into and the update batch handed to the consumer.
type fileScan struct {
	block     []byte
	batch     []Update
	path      string
	wantN     int64
	fn        func([]Update) error
	n, length int64
	line      int
	gotHeader bool
}

// scanPool recycles scans, for their block and batch. A scan is its caller's
// from Get to Put, so concurrent replays of one File stay independent.
var scanPool = sync.Pool{New: func() any {
	return &fileScan{block: make([]byte, scanBlock), batch: make([]Update, 0, DefaultBatchSize)}
}}

// scanFile parses the file at path once, handing its updates to fn in
// batches, and returns the header's vertex count and the number of updates.
// A non-zero wantN is the vertex count the header must still carry. The file
// is read block by block into a buffer that carries a partial last line
// forward and grows, up to maxLineBytes, only when one line outgrows it.
func scanFile(path string, wantN int64, fn func([]Update) error) (n, length int64, err error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer fh.Close()
	s := scanPool.Get().(*fileScan)
	*s = fileScan{block: s.block, batch: s.batch[:0], path: path, wantN: wantN, fn: fn}
	defer func() {
		s.fn = nil
		scanPool.Put(s) // with the block it came with: a grown one is dropped
	}()
	buf := s.block
	end := 0 // buf[:end] is the start of a line whose newline is still to come
	for eof := false; !eof; {
		if end == len(buf) {
			if len(buf) >= maxLineBytes {
				return 0, 0, fmt.Errorf("stream: %s line %d: line longer than %d bytes", path, s.line+1, maxLineBytes)
			}
			buf = append(make([]byte, 0, min(2*len(buf), maxLineBytes)), buf...)
			buf = buf[:cap(buf)]
		}
		k, rerr := fh.Read(buf[end:])
		if k == 0 && rerr != nil {
			if rerr != io.EOF {
				return 0, 0, rerr
			}
			if end == 0 {
				break
			}
			buf[end], k, eof = '\n', 1, true // a last line without a newline gets one
		}
		nl := bytes.LastIndexByte(buf[end:end+k], '\n')
		if end += k; nl < 0 {
			continue
		}
		whole := end - k + nl + 1
		if err := s.parseLines(buf[:whole]); err != nil {
			return 0, 0, err
		}
		end = copy(buf, buf[whole:end])
	}
	if !s.gotHeader {
		return 0, 0, fmt.Errorf("stream: %s: empty input", path)
	}
	if err := s.flush(); err != nil {
		return 0, 0, err
	}
	return s.n, s.length, nil
}

func (s *fileScan) flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	s.length += int64(len(s.batch))
	err := s.fn(s.batch)
	s.batch = s.batch[:0]
	return err
}

// blank marks the ASCII blanks around and between a line's fields. The newline
// is not one: it ends every line parseLines is given, so every loop of its sweep.
var blank = [256]bool{' ': true, '\t': true, '\v': true, '\f': true, '\r': true}

// parseLines parses b — whole lines, each ended by its newline — in a single
// forward sweep per line: blanks, the op byte, then twice blanks, an optional
// sign and a digit run, then blanks up to the newline. The header line is
// swept the same way, as one vertex count with anything after it. Lines are
// parsed straight from the read buffer; only the error paths make strings.
func (s *fileScan) parseLines(b []byte) error {
	for i := 0; i < len(b); {
		s.line++
		start := i
		for blank[b[i]] {
			i++
		}
		if b[i] == '\n' {
			i++
			continue
		}
		if b[i] == '#' {
			i += bytes.IndexByte(b[i:], '\n') + 1
			continue
		}
		o, fields, kind := Insert, 1, "header"
		if s.gotHeader {
			switch b[i] {
			case '+':
			case '-':
				o = Delete
			default:
				return fmt.Errorf("stream: %s line %d: bad op %q", s.path, s.line, b[i:i+1])
			}
			i, fields, kind = i+1, 2, "update"
		}
		var uv [2]int64
		ok := true
		for f := 0; f < fields && ok; f++ {
			j := i
			for blank[b[i]] {
				i++
			}
			ok = f == 0 || i > j // the second vertex starts after a blank
			neg := b[i] == '-'
			if neg || b[i] == '+' {
				i++
			}
			first, v := i, int64(0)
			if i+8 <= len(b) {
				// Up to eight digits at once, whatever their number: count the
				// digit bytes that lead the word, left-pad them, add up pairwise.
				w := binary.LittleEndian.Uint64(b[i:]) ^ 0x3030303030303030
				nd := bits.TrailingZeros64((w+0x7676767676767676|w)&0x8080808080808080) >> 3
				w <<= (8 - nd) * 8
				w = (w&0x0f000f000f000f00)>>8 + (w&0x000f000f000f000f)*10
				w = (w&0x00ff000000ff0000)>>16 + (w&0x000000ff000000ff)*100
				v = int64((w&0x0000ffff00000000)>>32 + (w&0x000000000000ffff)*10000)
				i += nd
			}
			for b[i]-'0' <= 9 {
				d := int64(b[i] - '0')
				if i-first >= 18 && v > (1<<63-1-d)/10 { // 18 digits cannot overflow
					ok = false
					break
				}
				v = v*10 + d
				i++
			}
			ok = ok && i > first
			if neg {
				v = -v
			}
			uv[f] = v
		}
		u, v := uv[0], uv[1]
		if !s.gotHeader {
			ok = ok && u > 0 && (blank[b[i]] || b[i] == '\n')
			i += bytes.IndexByte(b[i:], '\n') // the rest of a header line is not read
		} else {
			for blank[b[i]] {
				i++
			}
			ok = ok && b[i] == '\n'
		}
		if !ok {
			line := b[start : i+bytes.IndexByte(b[i:], '\n')]
			return fmt.Errorf("stream: %s line %d: bad %s %q", s.path, s.line, kind, bytes.Trim(line, " \t\n\v\f\r"))
		}
		i++
		if !s.gotHeader {
			if s.wantN != 0 && u != s.wantN {
				return fmt.Errorf("stream: %s line %d: header says %d vertices, OpenFile read %d: the file changed", s.path, s.line, u, s.wantN)
			}
			s.n, s.gotHeader = u, true
			continue
		}
		if u == v || u < 0 || v < 0 || u >= s.n || v >= s.n {
			return fmt.Errorf("stream: %s line %d: bad edge (%d,%d)", s.path, s.line, u, v)
		}
		s.batch = append(s.batch, Update{Edge: graph.Edge{U: u, V: v}, Op: o})
		if len(s.batch) == DefaultBatchSize {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	return nil
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
	err = s.ForEachBatch(func(batch []Update) error {
		for _, u := range batch {
			if _, err := fmt.Fprintf(w, "%s %d %d\n", u.Op, u.Edge.U, u.Edge.V); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return w.Flush()
}
