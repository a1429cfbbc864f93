package stream

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"streamcount/internal/pool"
)

// recordsPerBlock is how many whole segment records one scan block holds:
// the records segment replay decodes per read.
const recordsPerBlock = scanBlock / segRecordSize

// durableLog appends ups to a new durable log of the given segment size in
// 1000-update batches, so every full segment is sealed to disk and evicted
// and the rest stays in the in-memory tail.
func durableLog(t testing.TB, n int64, segSize int, ups []Update) *Appendable {
	t.Helper()
	a, err := NewAppendable(n, AppendableOptions{SegmentSize: segSize, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	for i := 0; i < len(ups); i += 1000 {
		if _, err := a.Append(ups[i:min(i+1000, len(ups))]); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// collectFrom replays v from lo and returns the updates delivered, checking
// that every batch is non-empty and at most DefaultBatchSize long.
func collectFrom(t *testing.T, v *View, lo int64) ([]Update, error) {
	t.Helper()
	var got []Update
	err := v.ForEachBatchFrom(lo, func(batch []Update) error {
		if len(batch) == 0 || len(batch) > DefaultBatchSize {
			t.Fatalf("lo %d: batch of %d updates, want 1..%d", lo, len(batch), DefaultBatchSize)
		}
		got = append(got, batch...)
		return nil
	})
	return got, err
}

func TestViewForEachBatchFrom(t *testing.T) {
	const segSize, tail = 4000, 500
	all := mixedUpdates(64, 2*segSize+tail, 17)
	a := durableLog(t, 64, segSize, all)
	v := a.Snapshot()
	if len(v.segs) != 3 || v.segs[0].mem != nil || v.segs[1].mem != nil || len(v.segs[2].mem) != tail {
		t.Fatalf("want two evicted segments and a %d-update tail, got %+v", tail, v.segs)
	}
	end := v.Len()
	// Every segment and block boundary, either side of it, and a few points
	// in between: each sealed segment spans two blocks.
	var grid []int64
	for _, b := range []int64{0, recordsPerBlock, segSize, segSize + recordsPerBlock, 2 * segSize, end} {
		for _, lo := range []int64{b - 1, b, b + 1} {
			if lo >= 0 && lo <= end {
				grid = append(grid, lo)
			}
		}
	}
	grid = append(grid, 1000, DefaultBatchSize, segSize+DefaultBatchSize-1, 2*segSize+tail/2)
	for _, lo := range grid {
		got, err := collectFrom(t, v, lo)
		if err != nil {
			t.Fatalf("lo %d: %v", lo, err)
		}
		if !updatesEqual(got, all[lo:]) {
			t.Fatalf("lo %d: replayed %d updates, not all[%d:%d]", lo, len(got), lo, end)
		}
	}
	for _, lo := range []int64{-1, end + 1} {
		if err := v.ForEachBatchFrom(lo, func([]Update) error { return nil }); err == nil {
			t.Errorf("lo %d: offset out of range accepted", lo)
		}
	}

	// Record 3125 sits in the first segment's second block.
	const bad = recordsPerBlock + 5
	seg0 := a.segPath(0)
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+bad*segRecordSize+9] ^= 0x04
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("record %d fails its checksum", bad)
	for _, lo := range []int64{0, 1000, recordsPerBlock, bad} {
		got, err := collectFrom(t, v, lo)
		if !errors.Is(err, ErrSegmentCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("lo %d: %v, want ErrSegmentCorrupt naming %q", lo, err, want)
		}
		if lo+int64(len(got)) > bad || !updatesEqual(got, all[lo:lo+int64(len(got))]) {
			t.Fatalf("lo %d: delivered %d updates, want a prefix of all[%d:%d]", lo, len(got), lo, bad)
		}
	}
}

// TestReplayPoolHygiene replays a text File and a durable View, which share
// the pooled scan, under every pool debug mode: recycled, fresh and smeared
// scans must all yield the same update sequence.
func TestReplayPoolHygiene(t *testing.T) {
	const segSize = 4000
	all := mixedUpdates(64, 2*segSize+recordsPerBlock, 23)
	a := durableLog(t, 64, segSize, all)
	v := a.Snapshot()
	path := filepath.Join(t.TempDir(), "stream.txt")
	if err := WriteFile(path, v); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.SetDebug(pool.SetDebug(pool.DebugOff))
	for _, mode := range []int32{pool.DebugOff, pool.DebugDisable, pool.DebugDirty} {
		pool.SetDebug(mode)
		for pass := 0; pass < 2; pass++ {
			var fromFile []Update
			if err := f.ForEachBatch(func(batch []Update) error {
				fromFile = append(fromFile, batch...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !updatesEqual(fromFile, all) {
				t.Fatalf("mode %d pass %d: File replay differs", mode, pass)
			}
			if got, err := collectFrom(t, v, 0); err != nil || !updatesEqual(got, all) {
				t.Fatalf("mode %d pass %d: View replay differs (%v)", mode, pass, err)
			}
			if got, err := collectFrom(t, v, segSize+1); err != nil || !updatesEqual(got, all[segSize+1:]) {
				t.Fatalf("mode %d pass %d: View suffix replay differs (%v)", mode, pass, err)
			}
		}
	}
}

// TestViewPassAllocs bounds what one durable View pass allocates: opening
// each sealed segment file, plus a constant that is zero here, where the
// callback captures nothing. The block and the batch are pooled, so the bound
// holds whatever the segment size. AllocsPerRun rounds down, so the rare
// pool miss a garbage collection causes in one of its runs does not show.
func TestViewPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random")
	}
	const sealed = 3
	nop := func([]Update) error { return nil }
	for _, segSize := range []int{4000, 16000} {
		a := durableLog(t, 64, segSize, mkUpdates(64, sealed*segSize+100, 29))
		v := a.Snapshot()
		path := a.segPath(0)
		open := testing.AllocsPerRun(20, func() {
			fh, err := osFS{}.OpenFile(path, os.O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			fh.Close()
		})
		allocs := testing.AllocsPerRun(20, func() {
			if err := v.ForEachBatch(nop); err != nil {
				t.Fatal(err)
			}
		})
		if bound := sealed * open; allocs > bound {
			t.Errorf("segment size %d: a pass allocates %.0f times, want at most %.0f (%d segment opens of %.0f)", segSize, allocs, bound, sealed, open)
		}
	}
}

// FuzzReadSegment holds the segment decoder to the record format on any
// bytes and any bounded (from, count): a read either fails with
// ErrSegmentCorrupt or delivers updates that re-encode to exactly the
// file's records [from, count), and in either case every update delivered
// re-encodes to the record at its position. No input makes it allocate more
// than one scan's working memory.
func FuzzReadSegment(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.bin")
	ups := mixedUpdates(64, 2*recordsPerBlock+7, 31)
	if err := writeSegment(osFS{}, seed, ups); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	n := uint16(len(ups))
	f.Add(data, uint16(0), n)
	f.Add(data, uint16(recordsPerBlock+1), n)
	f.Add(data[:len(data)-segRecordSize/2], uint16(0), n)
	flipped := bytes.Clone(data)
	flipped[segHeaderSize+(recordsPerBlock+5)*segRecordSize+3] ^= 0x20
	f.Add(flipped, uint16(0), n)
	// One scan (block and batch) plus what opening the file and formatting
	// an error take.
	const allocBound = uint64(scanBlock + DefaultBatchSize*unsafe.Sizeof(Update{}) + 16<<10)
	f.Fuzz(func(t *testing.T, data []byte, from, count uint16) {
		count %= 4*recordsPerBlock + 1
		from %= count + 1
		path := filepath.Join(dir, "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		next := segHeaderSize + int(from)*segRecordSize // where the next delivered record sits
		var rec [segRecordSize]byte
		fn := func(batch []Update) error {
			for _, u := range batch {
				if next+segRecordSize > len(data) || !bytes.Equal(appendRecord(rec[:0], u), data[next:next+segRecordSize]) {
					t.Fatalf("update %s %d %d delivered for the record at byte %d, which does not encode it", u.Op, u.Edge.U, u.Edge.V, next)
				}
				next += segRecordSize
			}
			return nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readSegmentFrom(osFS{}, path, int(from), int(count), fn)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("error %v does not wrap ErrSegmentCorrupt", err)
		}
		if end := segHeaderSize + int(count)*segRecordSize; err == nil && next != end {
			t.Fatalf("read of [%d, %d) ended at byte %d, want %d", from, count, next, end)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound {
			t.Fatalf("read of a %d-byte file allocated %d bytes, want at most %d", len(data), grew, allocBound)
		}
	})
}

// raceEnabled is set under the race detector, whose sync.Pool drops values at
// random, so allocation counts stop being a property of the code.
var raceEnabled bool
