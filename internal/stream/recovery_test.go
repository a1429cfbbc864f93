package stream

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	m := &manifest{
		N:           128,
		SegmentSize: 8,
		Version:     24,
		FirstDelete: 17,
		Segments: []manifestSegment{
			{Start: 0, Count: 8}, {Start: 8, Count: 8}, {Start: 16, Count: 8},
		},
	}
	data, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, m)
	}
	// Any single corrupted byte must be rejected with the typed sentinel.
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := decodeManifest(bad); !errors.Is(err, ErrManifestCorrupt) {
			t.Fatalf("flipping byte %d: err = %v, want ErrManifestCorrupt", i, err)
		}
	}
	if _, err := decodeManifest(nil); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatal("empty manifest accepted")
	}
}

func TestManifestStructuralValidation(t *testing.T) {
	bad := []*manifest{
		{N: 0, SegmentSize: 8},             // bad n
		{N: 4, SegmentSize: 0},             // bad segment size
		{N: 4, SegmentSize: 8, Version: 8}, // watermark with no segments
		{N: 4, SegmentSize: 8, Version: 8, Segments: []manifestSegment{{Start: 4, Count: 8}}},   // hole
		{N: 4, SegmentSize: 8, Version: 12, Segments: []manifestSegment{{Start: 0, Count: 12}}}, // wrong count
	}
	for i, m := range bad {
		data, err := encodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeManifest(data); !errors.Is(err, ErrManifestCorrupt) {
			t.Fatalf("case %d: err = %v, want ErrManifestCorrupt", i, err)
		}
	}
}

// updatesEqual compares update sequences elementwise (unlike
// reflect.DeepEqual it treats nil and empty as equal).
func updatesEqual(a, b []Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mixedUpdates builds a deterministic insert/delete workload.
func mixedUpdates(n int64, count int, seed int64) []Update {
	ups := mkUpdates(n, count, seed)
	for i := 5; i < len(ups); i += 7 {
		// Delete an edge inserted earlier; recovery must preserve the exact
		// op sequence, not just the edge multiset.
		ups[i] = Update{Edge: ups[i-3].Edge, Op: Delete}
	}
	return ups
}

func TestOpenAppendableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAppendable(64, AppendableOptions{SegmentSize: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	all := mixedUpdates(64, 45, 11)
	for i := 0; i < len(all); i += 7 {
		if _, err := a.Append(all[i:min(i+7, len(all))]); err != nil {
			t.Fatal(err)
		}
	}
	want := collectView(t, a.Snapshot())
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != int64(len(all)) || b.N() != 64 {
		t.Fatalf("recovered version=%d n=%d, want %d/64", b.Version(), b.N(), len(all))
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered replay differs from pre-close replay")
	}
	if b.InsertOnly() {
		t.Fatal("recovered log lost its deletes")
	}
	// Insert-only frontier survives: views before the first delete stay
	// insert-only, views after it do not.
	v4, err := b.At(5)
	if err != nil {
		t.Fatal(err)
	}
	if !v4.InsertOnly() {
		t.Fatal("At(5) should be insert-only (first delete is at index 5)")
	}

	// The recovered log keeps appending where it left off, and survives a
	// second recovery.
	more := mkUpdates(64, 13, 12)
	v, err := b.Append(more)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(len(all)+len(more)) {
		t.Fatalf("post-recovery append version %d, want %d", v, len(all)+len(more))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantAll := append(append([]Update(nil), all...), more...)
	if got := collectView(t, c.Snapshot()); !reflect.DeepEqual(got, wantAll) {
		t.Fatal("second recovery replay mismatch")
	}
}

func TestOpenAppendableErrors(t *testing.T) {
	if _, err := OpenAppendable(filepath.Join(t.TempDir(), "nope"), AppendableOptions{}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing dir: %v, want fs.ErrNotExist", err)
	}
	// A corrupted manifest is refused with the typed sentinel.
	dir := t.TempDir()
	a, err := NewAppendable(8, AppendableOptions{SegmentSize: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(mkUpdates(8, 9, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppendable(dir, AppendableOptions{}); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("corrupt manifest: %v, want ErrManifestCorrupt", err)
	}
	// NewAppendable refuses to clobber it too.
	if _, err := NewAppendable(8, AppendableOptions{SegmentSize: 4, Dir: dir}); err == nil {
		t.Fatal("NewAppendable over an existing (corrupt) manifest should fail")
	}
}

func TestNewAppendableRefusesExistingStream(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewAppendable(8, AppendableOptions{SegmentSize: 4, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAppendable(8, AppendableOptions{SegmentSize: 4, Dir: dir}); err == nil {
		t.Fatal("NewAppendable over an existing stream should fail")
	}
	if _, err := OpenAppendable(dir, AppendableOptions{}); err != nil {
		t.Fatalf("OpenAppendable of the empty stream: %v", err)
	}
}

func TestOpenAppendableSealedSegmentSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAppendable(16, AppendableOptions{SegmentSize: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(mkUpdates(16, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(dir, fmt.Sprintf("seg-%012d.bin", 0))
	if err := os.Truncate(seg0, segHeaderSize+2*segRecordSize); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppendable(dir, AppendableOptions{}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("truncated sealed segment: %v, want ErrSegmentCorrupt", err)
	}
}

func TestSealedSegmentChecksumCaughtOnReplay(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAppendable(16, AppendableOptions{SegmentSize: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(mkUpdates(16, 10, 3)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in an evicted segment: the size is still right,
	// so the corruption surfaces as a typed replay error.
	seg0 := filepath.Join(dir, fmt.Sprintf("seg-%012d.bin", 0))
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+segRecordSize+3] ^= 0x10
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = a.Snapshot().ForEachBatch(func([]Update) error { return nil })
	if !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("replay of corrupted segment: %v, want ErrSegmentCorrupt", err)
	}
	// Bad header magic is caught too.
	data[0] ^= 0xFF
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = a.Snapshot().ForEachBatch(func([]Update) error { return nil })
	if !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("replay with bad header: %v, want ErrSegmentCorrupt", err)
	}
}

// TestTornTailTruncationSweep cuts the tail segment file at every possible
// byte length and checks recovery truncates to the longest valid record
// prefix — never failing, never inventing records.
func TestTornTailTruncationSweep(t *testing.T) {
	base := t.TempDir()
	all := mixedUpdates(32, 11, 7) // segment size 8: one sealed + 3-record tail
	for cut := int64(0); ; cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%03d", cut))
		a, err := NewAppendable(32, AppendableOptions{SegmentSize: 8, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Append(all); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		tail := filepath.Join(dir, fmt.Sprintf("seg-%012d.bin", 8))
		info, err := os.Stat(tail)
		if err != nil {
			t.Fatal(err)
		}
		if cut > info.Size() {
			break
		}
		if err := os.Truncate(tail, cut); err != nil {
			t.Fatal(err)
		}
		b, err := OpenAppendable(dir, AppendableOptions{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Whole records below the cut survive; anything torn is dropped.
		wantTail := 0
		if cut >= segHeaderSize {
			wantTail = int((cut - segHeaderSize) / segRecordSize)
		}
		want := int64(8 + wantTail)
		if b.Version() != want {
			t.Fatalf("cut %d: recovered version %d, want %d", cut, b.Version(), want)
		}
		if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all[:want]) {
			t.Fatalf("cut %d: recovered replay mismatch", cut)
		}
		// The recovered log appends cleanly from the truncation point.
		if _, err := b.Append(all[want:]); err != nil {
			t.Fatalf("cut %d: re-append: %v", cut, err)
		}
		if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all) {
			t.Fatalf("cut %d: replay after re-append mismatch", cut)
		}
		b.Close()
	}
}

func TestTornTailChecksumCorruption(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAppendable(32, AppendableOptions{SegmentSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(32, 6, 9)
	if _, err := a.Append(all); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt record 4 of the tail: recovery keeps records 0-3, drops 4-5
	// (the scan stops at the first invalid record).
	tail := filepath.Join(dir, fmt.Sprintf("seg-%012d.bin", 0))
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+4*segRecordSize+2] ^= 0x01
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != 4 {
		t.Fatalf("recovered version %d, want 4", b.Version())
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all[:4]) {
		t.Fatal("recovered replay mismatch")
	}
}

// TestCrashRecoverySweep is the kill-at-every-boundary test: it replays the
// same append workload with FaultFS crashing at operation k, for every k up
// to the clean run's operation count, then recovers each directory with a
// clean filesystem and checks the recovered prefix is exactly a prefix of
// the workload, at least as long as the last cleanly acknowledged append.
func TestCrashRecoverySweep(t *testing.T) {
	const n, segSize, batch = 48, 4, 3
	all := mixedUpdates(n, 30, 21)

	// One clean run to learn the operation count.
	probe := NewFaultFS(nil)
	total := func() int64 {
		dir := filepath.Join(t.TempDir(), "probe")
		a, err := NewAppendable(n, AppendableOptions{SegmentSize: segSize, Dir: dir, FS: probe})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(all); i += batch {
			if _, err := a.Append(all[i:min(i+batch, len(all))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return probe.Ops()
	}()

	base := t.TempDir()
	for k := int64(0); k <= total; k++ {
		dir := filepath.Join(base, fmt.Sprintf("crash-%04d", k))
		ffs := NewFaultFS(nil)
		ffs.CrashAfter(k, nil)
		acked := int64(-1) // -1: creation itself may crash
		attempted := int64(0)
		func() {
			a, err := NewAppendable(n, AppendableOptions{SegmentSize: segSize, Dir: dir, FS: ffs})
			if err != nil {
				return
			}
			acked = 0
			for i := 0; i < len(all); i += batch {
				j := min(i+batch, len(all))
				attempted = int64(j)
				v, err := a.Append(all[i:j])
				if err != nil {
					return // the process "died" mid-append
				}
				if v != int64(j) {
					t.Fatalf("crash %d: ack version %d, want %d", k, v, j)
				}
				acked = v
			}
			a.Close()
		}()
		if acked < 0 {
			continue // nothing durable was promised
		}
		b, err := OpenAppendable(dir, AppendableOptions{})
		if err != nil {
			t.Fatalf("crash %d: recovery failed: %v", k, err)
		}
		rv := b.Version()
		if rv < acked || rv > max(attempted, acked) {
			t.Fatalf("crash %d: recovered version %d outside [acked=%d, attempted=%d]", k, rv, acked, attempted)
		}
		if got := collectView(t, b.Snapshot()); !updatesEqual(got, all[:rv]) {
			t.Fatalf("crash %d: recovered replay is not the workload prefix", k)
		}
		b.Close()
	}
}

// TestEvictFailureRetriesOnNextAppend is the ErrEvictFailed RAM-pinning fix:
// a failed seal (ENOSPC) keeps the segment in memory and degraded, and the
// next append retries and completes the flush.
func TestEvictFailureRetriesOnNextAppend(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	a, err := NewAppendable(32, AppendableOptions{SegmentSize: 4, Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	all := mixedUpdates(32, 16, 31)
	if _, err := a.Append(all[:2]); err != nil {
		t.Fatal(err)
	}
	// Fail every write for a while: sealing segment 0 cannot complete.
	ffs.FailWrites(100, fmt.Errorf("no space left on device"), false)
	v, err := a.Append(all[2:6])
	if !errors.Is(err, ErrEvictFailed) {
		t.Fatalf("append during ENOSPC: %v, want ErrEvictFailed", err)
	}
	if v != 6 {
		t.Fatalf("version %d, want 6 (publish-anyway)", v)
	}
	if a.EvictFailures() == 0 {
		t.Fatal("evict failure not counted")
	}
	// Degraded but intact: the whole log still replays from memory.
	if got := collectView(t, a.Snapshot()); !reflect.DeepEqual(got, all[:6]) {
		t.Fatal("replay during degraded mode mismatch")
	}
	// Disk heals; the next append retries the seal and catches the tail up.
	ffs.Heal()
	if _, err := a.Append(all[6:16]); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	fails := a.EvictFailures()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything — including the batch acked with ErrEvictFailed — is now
	// durable.
	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != 16 {
		t.Fatalf("recovered version %d, want 16", b.Version())
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all) {
		t.Fatal("recovered replay mismatch after heal")
	}
	if more := a.EvictFailures(); more != fails {
		t.Fatalf("evict failures kept growing after heal: %d -> %d", fails, more)
	}
}

// TestManifestRenameFailureRecovered: a torn manifest replacement (rename
// fails) degrades the append but the sealed segment file itself is durable,
// so recovery's forward scan finds it.
func TestManifestRenameFailureRecovered(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	a, err := NewAppendable(32, AppendableOptions{SegmentSize: 4, Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(32, 10, 41)
	ffs.FailRenames(10, nil)
	v, err := a.Append(all)
	if !errors.Is(err, ErrEvictFailed) {
		t.Fatalf("append with failing renames: %v, want ErrEvictFailed", err)
	}
	if v != 10 {
		t.Fatalf("version %d, want 10", v)
	}
	// "Kill" the process without healing: the manifest still has watermark 0
	// but both sealed segments and the tail are on disk.
	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != 10 {
		t.Fatalf("recovered version %d, want 10 (forward scan)", b.Version())
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all) {
		t.Fatal("recovered replay mismatch")
	}
	b.Close()
}

// TestShortWriteThenHeal: a torn tail write (half the batch's bytes hit the
// disk) degrades the append; after healing, the next append overwrites the
// torn region at the record-aligned offset and recovery sees a clean log.
func TestShortWriteThenHeal(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	a, err := NewAppendable(32, AppendableOptions{SegmentSize: 64, Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(32, 12, 51)
	if _, err := a.Append(all[:4]); err != nil {
		t.Fatal(err)
	}
	ffs.FailWrites(1, fmt.Errorf("i/o error"), true)
	if _, err := a.Append(all[4:8]); !errors.Is(err, ErrEvictFailed) {
		t.Fatalf("torn write: %v, want ErrEvictFailed", err)
	}
	ffs.Heal()
	if _, err := a.Append(all[8:12]); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != 12 {
		t.Fatalf("recovered version %d, want 12", b.Version())
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all) {
		t.Fatal("recovered replay mismatch after torn write heal")
	}
	b.Close()
}

// TestShortWriteCrashTruncates: a torn tail write followed by a crash (no
// heal) recovers exactly the cleanly acknowledged records plus whatever
// whole records of the torn batch made it down.
func TestShortWriteCrashTruncates(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	a, err := NewAppendable(32, AppendableOptions{SegmentSize: 64, Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(32, 8, 61)
	if _, err := a.Append(all[:4]); err != nil {
		t.Fatal(err)
	}
	ffs.FailWrites(1, fmt.Errorf("i/o error"), true)
	if _, err := a.Append(all[4:8]); !errors.Is(err, ErrEvictFailed) {
		t.Fatal("torn write should degrade the append")
	}
	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rv := b.Version()
	if rv < 4 || rv > 8 {
		t.Fatalf("recovered version %d outside [4,8]", rv)
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all[:rv]) {
		t.Fatal("recovered replay is not a clean prefix")
	}
	b.Close()
}

// TestSyncFaultRecoversAcknowledgedPrefix arms one failing fsync on each
// path that fsyncs: the tail under Sync, a full segment's seal, and Seal.
// The call that hit it must fail with the injected error and acknowledge
// nothing — no manifest watermark over the segment, no frozen log — and
// after Heal the same path retries, and OpenAppendable recovers exactly the
// acknowledged log.
func TestSyncFaultRecoversAcknowledgedPrefix(t *testing.T) {
	all := mkUpdates(32, 8, 81)
	for _, c := range []struct {
		name string
		opts AppendableOptions
		// fail is the call the armed fsync breaks; retry is the same path
		// after Heal. Each returns the log version it acknowledges.
		fail, retry func(a *Appendable) (int64, error)
	}{
		{
			name:  "tail",
			opts:  AppendableOptions{SegmentSize: 64, Sync: true},
			fail:  func(a *Appendable) (int64, error) { return a.Append(all[2:5]) },
			retry: func(a *Appendable) (int64, error) { return a.Append(all[5:8]) },
		},
		{
			name:  "segment seal",
			opts:  AppendableOptions{SegmentSize: 4},
			fail:  func(a *Appendable) (int64, error) { return a.Append(all[2:6]) },
			retry: func(a *Appendable) (int64, error) { return a.Append(all[6:8]) },
		},
		{
			name: "Seal",
			opts: AppendableOptions{SegmentSize: 64},
			fail: func(a *Appendable) (int64, error) {
				if v, err := a.Append(all[2:8]); err != nil {
					return v, err
				}
				return a.Version(), a.Seal()
			},
			retry: func(a *Appendable) (int64, error) { return a.Version(), a.Seal() },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(nil)
			c.opts.Dir, c.opts.FS = dir, ffs
			a, err := NewAppendable(32, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			acked, err := a.Append(all[:2])
			if err != nil {
				t.Fatal(err)
			}
			ffs.FailSyncs(1, nil)
			if _, err := c.fail(a); !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("call with a failing fsync: %v, want ErrFaultInjected", err)
			}
			if a.Sealed() {
				t.Fatal("a Seal whose fsync failed froze the log")
			}
			if m, err := readManifest(osFS{}, dir); err != nil {
				t.Fatal(err)
			} else if m.Version > acked {
				t.Fatalf("manifest watermark %d covers records past the acknowledged %d", m.Version, acked)
			}
			ffs.Heal()
			if acked, err = c.retry(a); err != nil {
				t.Fatalf("retry after heal: %v", err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := OpenAppendable(dir, AppendableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if b.Version() != acked {
				t.Fatalf("recovered version %d, want the acknowledged %d", b.Version(), acked)
			}
			if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all[:acked]) {
				t.Fatal("recovered replay differs from the acknowledged log")
			}
		})
	}
}

func TestWriteSegmentUnwritableDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	err := writeSegment(osFS{}, filepath.Join(dir, "seg-test.bin"), mkUpdates(8, 3, 71))
	if err == nil {
		t.Fatal("writeSegment into a missing directory should fail")
	}
}

func TestReadSegmentErrorPaths(t *testing.T) {
	dir := t.TempDir()
	nop := func([]Update) error { return nil }
	// Missing file.
	if err := readSegmentFrom(osFS{}, filepath.Join(dir, "nope.bin"), 0, 1, nop); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing segment: %v, want fs.ErrNotExist", err)
	}
	// File shorter than its header.
	short := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(short, []byte{'S', 'C'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readSegmentFrom(osFS{}, short, 0, 1, nop); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("short header: %v, want ErrSegmentCorrupt", err)
	}
	// Valid header, zero records, asked for one.
	hdr := filepath.Join(dir, "hdr.bin")
	if err := os.WriteFile(hdr, segFileHeader[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readSegmentFrom(osFS{}, hdr, 0, 1, nop); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("truncated records: %v, want ErrSegmentCorrupt", err)
	}
}

func TestRecoveredViewBitIdenticalAcrossReopen(t *testing.T) {
	// The determinism contract across a restart: a view pinned at version v
	// replays the identical update sequence before the close and after
	// recovery, so any estimator pinned at (seed, v) is bit-identical.
	dir := t.TempDir()
	a, err := NewAppendable(64, AppendableOptions{SegmentSize: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	all := mixedUpdates(64, 40, 81)
	if _, err := a.Append(all); err != nil {
		t.Fatal(err)
	}
	pins := []int64{0, 1, 7, 8, 9, 23, 40}
	before := map[int64][]Update{}
	for _, v := range pins {
		view, err := a.At(v)
		if err != nil {
			t.Fatal(err)
		}
		before[v] = collectView(t, view)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenAppendable(dir, AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pins {
		view, err := b.At(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := collectView(t, view); !reflect.DeepEqual(got, before[v]) {
			t.Fatalf("At(%d) differs across recovery", v)
		}
	}
	b.Close()
}

func TestAppendableSyncOption(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAppendable(16, AppendableOptions{SegmentSize: 4, Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	all := mkUpdates(16, 6, 91)
	if _, err := a.Append(all); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenAppendable(dir, AppendableOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectView(t, b.Snapshot()); !reflect.DeepEqual(got, all) {
		t.Fatal("sync-mode replay mismatch")
	}
	b.Close()
}
