package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"streamcount/internal/graph"
)

// DefaultSegmentSize is the number of updates per Appendable segment. A
// segment is the unit of disk eviction: once full it is sealed (and, when a
// segment directory is configured, flushed to disk and dropped from memory).
const DefaultSegmentSize = 1 << 15

// AppendableOptions configures NewAppendable and OpenAppendable.
type AppendableOptions struct {
	// SegmentSize is the number of updates per segment (default
	// DefaultSegmentSize). Smaller segments bound memory more tightly when a
	// Dir is set; larger segments amortize the per-segment file overhead.
	// Ignored by OpenAppendable, which takes the size from the manifest.
	SegmentSize int
	// Dir, when non-empty, makes the log durable: every Append is written
	// to the current tail segment file before it is acknowledged, sealed
	// segments are completed, fsynced and evicted from memory, and a
	// checksummed MANIFEST tracks the sealed prefix — so the log both
	// outgrows RAM and survives a process kill (OpenAppendable rebuilds it).
	// The directory is created if absent. Ignored by OpenAppendable, which
	// is given the directory explicitly.
	Dir string
	// Sync, when set, fsyncs the tail segment file on every Append, making
	// acknowledged appends survive a machine crash, not just a process
	// kill. Off by default: completed write syscalls already survive
	// SIGKILL, and sealing always fsyncs.
	Sync bool
	// FS substitutes the filesystem (nil: the real one). The seam exists
	// for the fault-injection harness; production code leaves it nil.
	FS FS
}

// segment is one fixed-capacity run of the log. Exactly one of mem/path is
// live: mem while the segment is open or sealed in memory, path once it has
// been flushed to disk and evicted. count is the number of updates the
// segment holds (== SegmentSize for sealed segments).
type segment struct {
	start int64
	mem   []Update
	path  string
	count int
}

// pendingSeal is a full segment whose file has not yet been completed and
// fsynced: it keeps its memory until the seal succeeds — retried on every
// subsequent Append — so the log stays replayable through disk trouble.
// fh/durable carry the tail file's incremental write state into the seal;
// after a failed incremental completion fh is nil and the retry rewrites
// the whole file.
type pendingSeal struct {
	seg     *segment
	fh      FileHandle
	durable int
}

// An Appendable is a versioned, append-only graph stream: a growing edge
// log whose every prefix is a valid Stream. Append publishes new updates
// and returns the new version (the log length); At(v) returns an immutable
// View of the length-v prefix that replays identically forever, no matter
// how much is appended afterwards. That is the substrate for live
// ingestion: the paper's estimators are pure functions of a stream prefix,
// so pinning a version pins the result (DESIGN.md §7).
//
// The log is segmented. Open and sealed segments live in memory; when a
// segment directory is configured, sealed segments are flushed to disk and
// evicted, so memory use is bounded by one segment regardless of log
// length. Views capture their segment references at creation time and are
// unaffected by later eviction.
//
// With a directory the log is also durable (DESIGN.md §9): each Append's
// records are written — CRC32C-checksummed — to the tail segment file
// before Append returns, and a checksummed MANIFEST commits the sealed
// prefix atomically on every seal. A cleanly acknowledged Append (nil
// error) is therefore recoverable after a process kill via OpenAppendable;
// an Append acknowledged with ErrEvictFailed is published in memory but its
// durability is degraded until a later Append's retry catches the disk up.
//
// An *Appendable is itself a Stream for convenience: each pass pins the
// version current at that call. Multi-pass algorithms must NOT consume an
// Appendable directly while it is being appended to — different passes
// would see different prefixes. Pin a View (or let an engine generation pin
// one) instead; the core engine does exactly that.
//
// Append and At are safe for concurrent use; any number of Views may replay
// concurrently with appends.
type Appendable struct {
	n    int64
	opts AppendableOptions
	fs   FS

	// wmu serializes appenders and owns all disk state: the tail file
	// handle and its durable-record watermark, the pending-seal queue, and
	// the manifest version. Memory publication (under mu) happens inside
	// the wmu critical section, so disk order always matches log order.
	wmu         sync.Mutex
	tailFile    FileHandle
	tailStart   int64
	tailDurable int
	pending     []*pendingSeal
	manifestVer int64

	// receiptFile/receiptOff are the idempotency-receipt log's write state
	// (also owned by wmu): the current RECEIPTS file and the byte offset of
	// its next record. recovered holds the receipts OpenAppendable
	// reconciled against the recovered prefix; immutable afterwards.
	receiptFile FileHandle
	receiptOff  int64
	recovered   []Receipt

	// sealed (owned by wmu) freezes the log for shipping: appends are
	// rejected with ErrSealed until Unseal. See Seal.
	sealed bool

	// evictFailures counts failed seal / tail-write / manifest operations:
	// each one left data RAM-pinned or non-durable until a later retry.
	evictFailures atomic.Int64

	mu          sync.Mutex
	segs        []*segment
	version     int64
	firstDelete int64 // global index of the first Delete; -1 while insert-only
}

// ErrDirInUse reports NewAppendable pointed at a directory that already
// holds a stream. Recover the existing stream with OpenAppendable instead
// of clobbering it.
var ErrDirInUse = errors.New("stream: directory already holds a stream")

// NewAppendable creates an empty appendable stream over n vertices. With
// Dir set, the directory must not already hold a stream manifest
// (ErrDirInUse otherwise) — reopen an existing log with OpenAppendable
// instead of silently clobbering it.
func NewAppendable(n int64, opts AppendableOptions) (*Appendable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stream: NewAppendable: vertex count %d must be positive", n)
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = osFS{}
	}
	a := &Appendable{n: n, opts: opts, fs: fsys, firstDelete: -1}
	if opts.Dir != "" {
		if err := fsys.MkdirAll(opts.Dir); err != nil {
			return nil, fmt.Errorf("stream: NewAppendable: %w", err)
		}
		if _, err := readManifest(fsys, opts.Dir); err == nil {
			return nil, fmt.Errorf("stream: NewAppendable: %s: %w (recover it with OpenAppendable)", opts.Dir, ErrDirInUse)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("stream: NewAppendable: %s: %w", opts.Dir, err)
		}
		if err := writeManifest(fsys, opts.Dir, &manifest{N: n, SegmentSize: opts.SegmentSize, FirstDelete: -1}); err != nil {
			return nil, fmt.Errorf("stream: NewAppendable: initial manifest: %w", err)
		}
		// A receipt log without a manifest is a leftover from a partially
		// removed directory; replaying its receipts against a fresh log would
		// wrongly dedup new appends.
		for _, name := range []string{ReceiptsName, receiptsOldName} {
			if err := fsys.Remove(filepath.Join(opts.Dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("stream: NewAppendable: removing stale receipts: %w", err)
			}
		}
	}
	return a, nil
}

// OpenAppendable rebuilds an Appendable from a segment directory written by
// a previous (possibly killed) process: it verifies the checksummed
// manifest (ErrManifestCorrupt on mismatch), validates the sealed segments
// it lists (ErrSegmentCorrupt on a size contradiction), forward-scans past
// the watermark for segments whose data was fully written but whose
// manifest commit was lost, and truncates a torn tail segment to its
// longest CRC-valid record prefix rather than failing. The recovered log
// resumes appending exactly where the durable prefix ends.
//
// opts.SegmentSize and opts.Dir are taken from the manifest/argument;
// opts.Sync and opts.FS apply as in NewAppendable.
func OpenAppendable(dir string, opts AppendableOptions) (*Appendable, error) {
	if dir == "" {
		return nil, fmt.Errorf("stream: OpenAppendable: empty directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = osFS{}
	}
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("stream: OpenAppendable(%s): %w", dir, err)
	}
	opts.SegmentSize = m.SegmentSize
	opts.Dir = dir
	a := &Appendable{n: m.N, opts: opts, fs: fsys, firstDelete: -1}
	if m.FirstDelete >= 0 {
		a.firstDelete = m.FirstDelete
	}
	// Sealed prefix: cheap size validation here; records are CRC-verified
	// on every replay.
	v := int64(0)
	for _, ms := range m.Segments {
		path := a.segPath(ms.Start)
		size, err := fsys.Size(path)
		if err != nil {
			return nil, fmt.Errorf("stream: OpenAppendable(%s): sealed segment at %d: %w: %v", dir, ms.Start, ErrSegmentCorrupt, err)
		}
		if want := int64(segHeaderSize) + int64(ms.Count)*segRecordSize; size != want {
			return nil, fmt.Errorf("stream: OpenAppendable(%s): sealed segment at %d is %d bytes, want %d: %w", dir, ms.Start, size, want, ErrSegmentCorrupt)
		}
		a.segs = append(a.segs, &segment{start: ms.Start, path: path, count: ms.Count})
		v += int64(ms.Count)
	}
	a.manifestVer = v
	// Forward scan past the watermark: first any segments whose records all
	// made it to disk before the kill (their manifest commit didn't), then
	// the torn tail, truncated to its longest valid record prefix.
	for {
		recs, complete, err := scanSegment(fsys, a.segPath(v), m.SegmentSize)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: OpenAppendable(%s): scanning segment at %d: %w", dir, v, err)
		}
		if a.firstDelete < 0 {
			for i, u := range recs {
				if u.Op == Delete {
					a.firstDelete = v + int64(i)
					break
				}
			}
		}
		if complete {
			a.segs = append(a.segs, &segment{start: v, path: a.segPath(v), count: m.SegmentSize})
			v += int64(m.SegmentSize)
			continue
		}
		// The torn tail. Reload it into memory and reopen its file for
		// incremental appends, cut back to the valid prefix.
		mem := make([]Update, 0, m.SegmentSize)
		mem = append(mem, recs...)
		seg := &segment{start: v, mem: mem, count: len(recs)}
		fh, err := a.reopenTail(v, len(recs))
		if err != nil {
			return nil, fmt.Errorf("stream: OpenAppendable(%s): truncating torn tail at %d: %w", dir, v, err)
		}
		a.segs = append(a.segs, seg)
		a.tailFile, a.tailStart, a.tailDurable = fh, v, len(recs)
		v += int64(len(recs))
		break
	}
	a.version = v
	// Reconcile the idempotency receipts against the recovered prefix. A
	// receipt is written before its batch's data and the disk image is
	// always a contiguous log prefix, so three cases cover every kill point:
	// the batch is fully durable (replay the receipt to retries), not
	// durable at all (drop the receipt; the retry applies for real), or
	// partially durable — in which case the log is rolled back to the batch
	// start so the retry cannot duplicate the surviving prefix.
	recs, validLen, err := readReceiptLogs(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("stream: OpenAppendable(%s): receipts: %w", dir, err)
	}
	for _, r := range recs {
		switch {
		case r.start < 0 || r.end <= r.start:
			// Structurally impossible range: ignore rather than guess.
		case r.end <= a.version:
			a.recovered = append(a.recovered, Receipt{Key: r.key, Version: r.end, Count: int(r.end - r.start)})
		case r.start >= a.version:
			// Nothing of the batch survived; the retry re-appends it.
		default:
			if err := a.rollbackTo(r.start); err != nil {
				return nil, fmt.Errorf("stream: OpenAppendable(%s): rolling back partial keyed batch at %d: %w", dir, r.start, err)
			}
		}
	}
	a.receiptOff = validLen
	// Commit the reconciled segment list to the manifest — forward-scanned
	// seals grow the watermark, a rollback shrinks it — so the next recovery
	// starts from a manifest that matches the directory.
	if mm := a.currentManifest(); mm.Version != a.manifestVer {
		if err := writeManifest(fsys, dir, mm); err != nil {
			return nil, fmt.Errorf("stream: OpenAppendable(%s): manifest update: %w", dir, err)
		}
		a.manifestVer = mm.Version
	}
	return a, nil
}

// rollbackTo cuts the recovered log back to version t during OpenAppendable:
// segments wholly past t are deleted, the segment t lands in is truncated to
// its pre-t records and reloaded as the open tail. Only recovery calls this,
// and only for a partially durable keyed batch — whose receipt guarantees
// nothing after t was acknowledged durable.
func (a *Appendable) rollbackTo(t int64) error {
	if a.tailFile != nil {
		// The torn tail (if any) ends at the recovered version, which is
		// inside the rolled-back batch, so its segment is never kept as-is.
		a.tailFile.Close()
		a.tailFile, a.tailDurable = nil, 0
	}
	keep := a.segs[:0]
	for _, s := range a.segs {
		switch {
		case s.start+int64(s.count) <= t:
			keep = append(keep, s)
		case s.start >= t:
			if err := a.fs.Remove(a.segPath(s.start)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		default:
			// t lands inside s: cut the file back to t-start records and
			// reload them as the open tail.
			count := int(t - s.start)
			recs, _, err := scanSegment(a.fs, a.segPath(s.start), a.opts.SegmentSize)
			if err != nil {
				return err
			}
			if len(recs) < count {
				return fmt.Errorf("segment at %d holds %d valid records, rollback needs %d: %w", s.start, len(recs), count, ErrSegmentCorrupt)
			}
			mem := make([]Update, 0, a.opts.SegmentSize)
			mem = append(mem, recs[:count]...)
			fh, err := a.reopenTail(s.start, count)
			if err != nil {
				return err
			}
			keep = append(keep, &segment{start: s.start, mem: mem, count: count})
			a.tailFile, a.tailStart, a.tailDurable = fh, s.start, count
		}
	}
	a.segs = keep
	a.version = t
	if a.firstDelete >= t {
		a.firstDelete = -1
	}
	return nil
}

// Receipts returns the idempotency-key receipts OpenAppendable recovered:
// exactly the keyed appends whose batches are present in the recovered log.
// A server rebuilds its Idempotency-Key registry from them, so a client
// retrying an append acknowledged by a killed process gets the original
// receipt back instead of double-publishing. Nil for streams created with
// NewAppendable.
func (a *Appendable) Receipts() []Receipt { return a.recovered }

// reopenTail reopens a recovered tail segment file truncated to its valid
// count-record prefix. A tail with no valid records (or no valid header) is
// recreated from scratch.
func (a *Appendable) reopenTail(start int64, count int) (FileHandle, error) {
	if count == 0 {
		return a.createTail(start)
	}
	fh, err := a.fs.OpenFile(a.segPath(start), os.O_RDWR)
	if err != nil {
		return nil, err
	}
	if err := fh.Truncate(int64(segHeaderSize) + int64(count)*segRecordSize); err != nil {
		fh.Close()
		return nil, err
	}
	return fh, nil
}

// N returns the number of vertices.
func (a *Appendable) N() int64 { return a.n }

// Version returns the current log length. Every version ever returned by
// Append remains addressable through At.
func (a *Appendable) Version() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// Len implements Stream as the current version.
func (a *Appendable) Len() int64 { return a.Version() }

// InsertOnly implements Stream for the current version.
func (a *Appendable) InsertOnly() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.firstDelete < 0
}

// EvictFailures returns the number of failed durability operations (tail
// writes, segment seals, manifest commits) so far. A nonzero growing value
// means published data is RAM-pinned or not yet durable; the counter stops
// growing once a later Append's retry catches the disk up.
func (a *Appendable) EvictFailures() int64 { return a.evictFailures.Load() }

// Close flushes and closes the tail segment file. The log remains readable
// (Views stay valid) but must not be appended to afterwards. Close is safe
// alongside replays and idempotent; without a directory it is a no-op.
func (a *Appendable) Close() error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	var first error
	for _, p := range a.pending {
		if p.fh != nil {
			if err := p.fh.Close(); err != nil && first == nil {
				first = err
			}
			p.fh = nil
		}
	}
	if a.tailFile != nil {
		if err := a.tailFile.Sync(); err != nil && first == nil {
			first = err
		}
		if err := a.tailFile.Close(); err != nil && first == nil {
			first = err
		}
		a.tailFile = nil
		a.tailDurable = 0
	}
	if a.receiptFile != nil {
		if err := a.receiptFile.Close(); err != nil && first == nil {
			first = err
		}
		a.receiptFile = nil
	}
	return first
}

// ForEachBatch implements Stream, pinning the version current at the call.
func (a *Appendable) ForEachBatch(fn func([]Update) error) error {
	return a.Snapshot().ForEachBatch(fn)
}

// ErrEvictFailed reports that appended updates were all published but could
// not be made (fully) durable: a tail write, segment seal, or manifest
// commit failed. The log is intact and fully replayable — affected segments
// stay in memory — and every subsequent Append retries the failed work, so
// the condition heals with the disk. Until it does, the EvictFailures
// counter grows, memory is not being reclaimed, and a process kill would
// lose the batches acknowledged with this error (and only those).
var ErrEvictFailed = errors.New("stream: segment eviction failed")

// Append validates ups and appends them: a validation failure publishes
// nothing and the log is unchanged; otherwise every update is published
// and the new version is returned. With a segment directory, the batch is
// also written to the tail segment file (and any filled segments sealed and
// evicted) before returning: a nil error means the batch is durable against
// a process kill. A non-nil error alongside a published batch wraps
// ErrEvictFailed — a disk-backing problem, not a log problem — so callers
// can report it without treating the batch as lost.
// Append is safe to call concurrently with replays of any View.
func (a *Appendable) Append(ups []Update) (int64, error) {
	return a.AppendKeyed("", ups)
}

// ErrReceiptFailed reports a keyed append rejected because its idempotency
// receipt could not be journaled. Nothing was published — the log is
// unchanged — so the caller can safely retry the same key and batch once the
// disk recovers; the retry rewrites the receipt at the same offset.
var ErrReceiptFailed = errors.New("stream: append receipt write failed")

// AppendKeyed is Append under an idempotency key. With a segment directory
// and a non-empty key, a receipt {key, batch range} is written to the
// stream's receipt log before the batch's data, so recovery (OpenAppendable)
// can reconstruct which acknowledged keyed appends survived a process kill —
// see Receipts. An empty key is a plain Append. A receipt-log write failure
// rejects the batch before publication (ErrReceiptFailed): an acknowledged
// keyed append is never left without replay protection, and the rejected
// batch is safe to retry under the same key.
func (a *Appendable) AppendKeyed(key string, ups []Update) (int64, error) {
	if len(key) > MaxReceiptKeyLen {
		return 0, fmt.Errorf("stream: append idempotency key is %d bytes, max %d", len(key), MaxReceiptKeyLen)
	}
	for i, u := range ups {
		if u.Edge.IsLoop() {
			return 0, fmt.Errorf("stream: append update %d is a self-loop %v", i, u.Edge)
		}
		if u.Edge.U < 0 || u.Edge.U >= a.n || u.Edge.V < 0 || u.Edge.V >= a.n {
			return 0, fmt.Errorf("stream: append update %d edge %v out of range [0,%d)", i, u.Edge, a.n)
		}
		if u.Op != Insert && u.Op != Delete {
			return 0, fmt.Errorf("stream: append update %d has invalid op %d", i, u.Op)
		}
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.sealed {
		return 0, fmt.Errorf("stream: append: %w", ErrSealed)
	}
	if a.opts.Dir != "" && key != "" && len(ups) > 0 {
		// The receipt must hit the disk before any of the batch's records:
		// recovery decides "replay or re-apply" from receipt-then-data order.
		// If it can't, reject the whole batch — publishing without a receipt
		// would hand back an ack whose replay protection dies with the process.
		start := a.Version() // stable: wmu excludes other appenders
		if err := a.writeReceiptLocked(key, start, start+int64(len(ups))); err != nil {
			a.evictFailures.Add(1)
			return start, fmt.Errorf("%w: key %q: %w", ErrReceiptFailed, key, err)
		}
	}
	version, full := a.publish(ups)
	if a.opts.Dir == "" {
		return version, nil
	}
	return version, a.persist(full)
}

// writeReceiptLocked appends one receipt record to the stream's receipt
// log, rotating the file past its size bound. Caller holds wmu. On failure
// the write offset does not advance, so the next receipt overwrites any
// torn bytes.
func (a *Appendable) writeReceiptLocked(key string, start, end int64) error {
	rec := appendReceiptRec(nil, receiptRec{key: key, start: start, end: end})
	if a.receiptOff > 0 && a.receiptOff+int64(len(rec)) > maxReceiptLogBytes {
		if a.receiptFile != nil {
			a.receiptFile.Close()
			a.receiptFile = nil
		}
		if err := a.fs.Rename(filepath.Join(a.opts.Dir, ReceiptsName), filepath.Join(a.opts.Dir, receiptsOldName)); err != nil {
			return err
		}
		a.receiptOff = 0
	}
	if a.receiptFile == nil {
		fh, err := a.fs.OpenFile(filepath.Join(a.opts.Dir, ReceiptsName), os.O_CREATE|os.O_RDWR)
		if err != nil {
			return err
		}
		a.receiptFile = fh
	}
	if _, err := a.receiptFile.WriteAt(rec, a.receiptOff); err != nil {
		return err
	}
	a.receiptOff += int64(len(rec))
	if a.opts.Sync {
		return a.receiptFile.Sync()
	}
	return nil
}

// publish appends the validated batch to the in-memory log and returns the
// new version plus any segments the batch filled.
func (a *Appendable) publish(ups []Update) (int64, []*segment) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var full []*segment
	for _, u := range ups {
		tail := a.tailLocked()
		// Appends never reallocate: the segment buffer is allocated at full
		// capacity up front, so Views holding subslices of it stay valid and
		// race-free (they only read indexes below their captured length).
		tail.mem = append(tail.mem, u)
		tail.count = len(tail.mem)
		if u.Op == Delete && a.firstDelete < 0 {
			a.firstDelete = a.version
		}
		a.version++
		if tail.count == a.opts.SegmentSize {
			// This call filled the segment's last slot, so it owns sealing
			// it — no other Append can see it as its tail again.
			full = append(full, tail)
		}
	}
	return a.version, full
}

// persist makes the published batch durable, in log order: retry and
// complete pending seals (oldest first), commit the sealed watermark to the
// manifest, then write the open tail's new records to its file. Any failure
// is reported as ErrEvictFailed — the batch stays published and replayable
// from memory — and the failed work is retried by the next Append. After a
// failed seal the tail write is skipped so the on-disk image stays a
// contiguous prefix of the log.
func (a *Appendable) persist(full []*segment) error {
	for _, s := range full {
		p := &pendingSeal{seg: s}
		if a.tailFile != nil && a.tailStart == s.start {
			p.fh, p.durable = a.tailFile, a.tailDurable
			a.tailFile, a.tailDurable = nil, 0
		}
		a.pending = append(a.pending, p)
	}
	var firstErr, sealErr error
	for len(a.pending) > 0 {
		p := a.pending[0]
		if err := a.completeSeal(p); err != nil {
			a.evictFailures.Add(1)
			sealErr = err
			firstErr = fmt.Errorf("%w: sealing segment at %d: %w", ErrEvictFailed, p.seg.start, err)
			break
		}
		a.pending = a.pending[1:]
		a.mu.Lock()
		p.seg.path = a.segPath(p.seg.start)
		p.seg.mem = nil
		a.mu.Unlock()
	}
	if m := a.currentManifest(); m.Version > a.manifestVer {
		if err := writeManifest(a.fs, a.opts.Dir, m); err != nil {
			// The sealed files themselves are durable and fsynced — recovery
			// finds them by forward scan — so the eviction above stands; the
			// watermark commit is retried on the next seal.
			a.evictFailures.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: manifest commit: %w", ErrEvictFailed, err)
			}
		} else {
			a.manifestVer = m.Version
		}
	}
	// Tail catch-up — skipped only after a failed seal: the failed segment
	// precedes the tail, and the on-disk image must stay a contiguous prefix
	// of the log. A failed manifest commit alone does not break contiguity
	// (the sealed files are on disk; recovery forward-scans past the stale
	// watermark), so the tail still gets written.
	if sealErr == nil {
		if err := a.syncTail(); err != nil {
			a.evictFailures.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: tail segment at %d: %w", ErrEvictFailed, a.tailStart, err)
			}
		}
	}
	return firstErr
}

// completeSeal writes the remainder of a full segment's file, fsyncs and
// closes it. With no usable incremental handle the whole file is rewritten.
func (a *Appendable) completeSeal(p *pendingSeal) error {
	if p.fh == nil {
		return writeSegment(a.fs, a.segPath(p.seg.start), p.seg.mem)
	}
	if err := writeRecords(p.fh, p.seg.mem, &p.durable); err != nil {
		p.fh.Close()
		p.fh = nil
		return err
	}
	if err := p.fh.Sync(); err != nil {
		p.fh.Close()
		p.fh = nil
		return err
	}
	err := p.fh.Close()
	p.fh = nil
	if err != nil {
		return err
	}
	return nil
}

// syncTail writes the open tail segment's not-yet-durable records to its
// file, creating the file (header included) when the tail is new.
func (a *Appendable) syncTail() error {
	a.mu.Lock()
	var tail *segment
	if len(a.segs) > 0 {
		if t := a.segs[len(a.segs)-1]; t.mem != nil && t.count < a.opts.SegmentSize {
			tail = t
		}
	}
	var mem []Update
	if tail != nil {
		mem = tail.mem[:tail.count]
	}
	a.mu.Unlock()
	if tail == nil {
		return nil
	}
	if a.tailFile == nil || a.tailStart != tail.start {
		if a.tailFile != nil {
			a.tailFile.Close()
			a.tailFile = nil
		}
		fh, err := a.createTail(tail.start)
		if err != nil {
			return err
		}
		a.tailFile, a.tailStart, a.tailDurable = fh, tail.start, 0
	}
	if err := writeRecords(a.tailFile, mem, &a.tailDurable); err != nil {
		return err
	}
	if a.opts.Sync {
		return a.tailFile.Sync()
	}
	return nil
}

// createTail creates (or truncates) a fresh tail segment file and writes
// its header.
func (a *Appendable) createTail(start int64) (FileHandle, error) {
	fh, err := a.fs.OpenFile(a.segPath(start), os.O_CREATE|os.O_TRUNC|os.O_RDWR)
	if err != nil {
		return nil, err
	}
	if _, err := fh.WriteAt(segFileHeader[:], 0); err != nil {
		fh.Close()
		return nil, err
	}
	return fh, nil
}

// currentManifest snapshots the manifest describing the log's contiguous
// sealed-and-evicted prefix.
func (a *Appendable) currentManifest() *manifest {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := &manifest{N: a.n, SegmentSize: a.opts.SegmentSize, FirstDelete: -1}
	for _, s := range a.segs {
		if s.path == "" {
			break
		}
		m.Segments = append(m.Segments, manifestSegment{Start: s.start, Count: s.count})
		m.Version += int64(s.count)
	}
	if a.firstDelete >= 0 && a.firstDelete < m.Version {
		m.FirstDelete = a.firstDelete
	}
	return m
}

// segPath names the segment file whose first update has global index start.
func (a *Appendable) segPath(start int64) string {
	return filepath.Join(a.opts.Dir, fmt.Sprintf("seg-%012d.bin", start))
}

// tailLocked returns the open tail segment, creating one if the log is
// empty or the last segment is sealed.
func (a *Appendable) tailLocked() *segment {
	if len(a.segs) > 0 {
		if t := a.segs[len(a.segs)-1]; t.count < a.opts.SegmentSize {
			return t
		}
	}
	t := &segment{start: a.version, mem: make([]Update, 0, a.opts.SegmentSize)}
	a.segs = append(a.segs, t)
	return t
}

// viewSeg is one segment reference captured by a View: either an immutable
// in-memory prefix or a disk segment plus how many of its updates fall
// inside the view.
type viewSeg struct {
	mem   []Update
	path  string
	count int
}

// A View is the immutable length-version prefix of an Appendable. It
// implements Stream: every pass replays exactly the same updates in the
// same order, concurrent appends notwithstanding, so multi-pass algorithms
// and generation pinning can treat it as a static stream.
type View struct {
	n          int64
	version    int64
	insertOnly bool
	fs         FS
	segs       []viewSeg
}

// At returns the immutable view of the length-v prefix. v must not exceed
// the current version.
func (a *Appendable) At(v int64) (*View, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v < 0 || v > a.version {
		return nil, fmt.Errorf("stream: At(%d): version out of range [0,%d]", v, a.version)
	}
	view := &View{n: a.n, version: v, insertOnly: a.firstDelete < 0 || a.firstDelete >= v, fs: a.fs}
	remaining := v
	for _, s := range a.segs {
		if remaining <= 0 {
			break
		}
		take := min(int64(s.count), remaining)
		if s.mem != nil {
			view.segs = append(view.segs, viewSeg{mem: s.mem[:take:take]})
		} else {
			view.segs = append(view.segs, viewSeg{path: s.path, count: int(take)})
		}
		remaining -= take
	}
	return view, nil
}

// Snapshot returns the view of the current version.
func (a *Appendable) Snapshot() *View {
	v, err := a.At(a.Version())
	if err != nil {
		// Unreachable: the version was just read off the log and versions
		// never shrink.
		panic(err)
	}
	return v
}

// N implements Stream.
func (v *View) N() int64 { return v.n }

// Len implements Stream as the pinned version.
func (v *View) Len() int64 { return v.version }

// Version returns the pinned version (== Len).
func (v *View) Version() int64 { return v.version }

// InsertOnly implements Stream for the pinned prefix.
func (v *View) InsertOnly() bool { return v.insertOnly }

// ForEachBatch implements Stream: the full replay, ForEachBatchFrom(0, fn).
func (v *View) ForEachBatch(fn func([]Update) error) error { return v.ForEachBatchFrom(0, fn) }

// ForEachBatchFrom replays the suffix [lo, Len()) of the view, in order;
// lo = 0 is the full replay. Batches hold at most DefaultBatchSize updates
// and start at lo, so past lo they need not fall where a full replay's would:
// no consumer depends on where a batch starts. In-memory segments are served
// as zero-copy subslices. Evicted segments are read through a pooled block;
// segments wholly before lo are not opened, the skipped records of the one lo
// falls in are read but not decoded, and every replayed record's checksum is
// verified. This is the primitive behind incremental watch evaluation: a
// consumer that already holds state for the prefix [0, lo) decodes only the
// Len()-lo updates it lacks to catch up (DESIGN.md §10).
func (v *View) ForEachBatchFrom(lo int64, fn func([]Update) error) error {
	if lo < 0 || lo > v.version {
		return fmt.Errorf("stream: ForEachBatchFrom(%d): offset out of range [0,%d]", lo, v.version)
	}
	fsys := v.fs
	if fsys == nil {
		fsys = osFS{}
	}
	skip := lo
	for _, s := range v.segs {
		count := int64(len(s.mem))
		if s.mem == nil {
			count = int64(s.count)
		}
		if skip >= count {
			skip -= count
			continue
		}
		if s.mem != nil {
			for i := skip; i < count; i += DefaultBatchSize {
				j := min(i+DefaultBatchSize, count)
				if err := fn(s.mem[i:j]); err != nil {
					return err
				}
			}
		} else if err := readSegmentFrom(fsys, s.path, int(skip), s.count, fn); err != nil {
			return err
		}
		skip = 0
	}
	return nil
}

// Segment file format v1: an 8-byte header (magic "SCSG", format version,
// padding) followed by fixed-width records — u and v as little-endian
// int64, one op byte, and a CRC32C over those 17 payload bytes — so a
// segment's length is checkable from its size, decoding needs no parsing,
// and every record is individually verifiable. The checksum is what makes
// torn-tail truncation sound: the longest valid record prefix is exactly
// the data whose writes completed.
const (
	segHeaderSize  = 8
	segPayloadSize = 17
	segRecordSize  = segPayloadSize + 4
)

// segFileHeader is the fixed segment file header: magic plus format version.
var segFileHeader = [segHeaderSize]byte{'S', 'C', 'S', 'G', 1, 0, 0, 0}

// appendRecord encodes one update (payload + CRC32C) onto buf. The payload
// is checksummed where it lands in buf: a local record array would escape to
// the heap through the checksum, one allocation per record.
func appendRecord(buf []byte, u Update) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Edge.U))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Edge.V))
	buf = append(buf, byte(u.Op))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(buf)-segPayloadSize:], crcTable))
}

// decodeRecord decodes one record, reporting whether its checksum holds.
func decodeRecord(rec []byte) (Update, bool) {
	if binary.LittleEndian.Uint32(rec[segPayloadSize:segRecordSize]) != crc32.Checksum(rec[:segPayloadSize], crcTable) {
		return Update{}, false
	}
	return Update{
		Edge: graph.Edge{
			U: int64(binary.LittleEndian.Uint64(rec[0:8])),
			V: int64(binary.LittleEndian.Uint64(rec[8:16])),
		},
		Op: Op(int8(rec[16])),
	}, true
}

// A packed block holds one batch of at most DefaultBatchSize updates: its
// count (uint32), a CRC32C of the rest, an op bitmap (bit i set: update i is
// a deletion; spare bits zero), then each update as the uint64 u<<32 | v in
// the orientation it was written, all little-endian. A block's size follows
// from its count, so a run of full blocks needs no offset table.
const packedHeaderSize = 8

// packedBlockSize returns the size of a block of count updates.
func packedBlockSize(count int) int { return packedHeaderSize + (count+7)/8 + 8*count }

// appendPackedBlock encodes batch as one block onto buf. Its endpoints must
// lie in [0, graph.MaxVertices).
func appendPackedBlock(buf []byte, batch []Update) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(batch))) // the count, and the checksum's place
	ops := len(buf)
	buf = append(buf, make([]byte, (len(batch)+7)/8)...)
	for i, u := range batch {
		if u.Op == Delete {
			buf[ops+i/8] |= 1 << (i % 8)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Edge.U)<<32|uint64(u.Edge.V))
	}
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[ops:], crcTable))
	return buf
}

// decodePackedBlock decodes the block that b starts with into batch, whose
// backing array it reuses, and returns the batch and the block's size. A
// count over DefaultBatchSize, a block longer than b, a checksum mismatch or
// a set spare bit is an error wrapping ErrSpillCorrupt, and no update is
// decoded.
func decodePackedBlock(b []byte, batch []Update) ([]Update, int, error) {
	if len(b) < packedHeaderSize {
		return batch[:0], 0, fmt.Errorf("%d bytes hold no block header: %w", len(b), ErrSpillCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count > DefaultBatchSize {
		return batch[:0], 0, fmt.Errorf("count %d is over %d: %w", count, DefaultBatchSize, ErrSpillCorrupt)
	}
	size := packedBlockSize(count)
	if len(b) < size {
		return batch[:0], 0, fmt.Errorf("%d updates need %d bytes, have %d: %w", count, size, len(b), ErrSpillCorrupt)
	}
	ops, keys := b[packedHeaderSize:size-8*count], b[size-8*count:size]
	if got, want := crc32.Checksum(b[packedHeaderSize:size], crcTable), binary.LittleEndian.Uint32(b[4:]); got != want {
		return batch[:0], 0, fmt.Errorf("checksum %08x, want %08x: %w", got, want, ErrSpillCorrupt)
	}
	if count%8 != 0 && ops[len(ops)-1]>>(count%8) != 0 {
		return batch[:0], 0, fmt.Errorf("op bitmap sets a spare bit: %w", ErrSpillCorrupt)
	}
	batch = slices.Grow(batch[:0], count)[:count]
	for i := range batch {
		op := Insert
		if ops[i/8]>>(i%8)&1 != 0 {
			op = Delete
		}
		batch[i] = Update{Edge: graph.KeyEdge(binary.LittleEndian.Uint64(keys[8*i:])), Op: op}
	}
	return batch, size, nil
}

// writeRecords writes mem's records from *durable onward at their exact
// file offset, advancing *durable past every fully persisted record. On a
// short write the partially written record is NOT counted — the next
// attempt overwrites it at the same record-aligned offset, and a kill
// before that leaves a torn tail the recovery scan truncates.
func writeRecords(fh FileHandle, mem []Update, durable *int) error {
	count := len(mem)
	if *durable >= count {
		return nil
	}
	buf := make([]byte, 0, (count-*durable)*segRecordSize)
	for _, u := range mem[*durable:count] {
		buf = appendRecord(buf, u)
	}
	n, err := fh.WriteAt(buf, int64(segHeaderSize)+int64(*durable)*segRecordSize)
	*durable += n / segRecordSize
	return err
}

// writeSegment writes updates as one complete segment file — header,
// checksummed records, fsync — replacing whatever was at path.
func writeSegment(fsys FS, path string, ups []Update) error {
	fh, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, segHeaderSize+len(ups)*segRecordSize)
	buf = append(buf, segFileHeader[:]...)
	for _, u := range ups {
		buf = appendRecord(buf, u)
	}
	if _, err := fh.Write(buf); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// readSegmentFrom streams records [from, count) of a segment file through
// fn in DefaultBatchSize batches. It borrows a scan from scanPool — File
// replay's working memory — reads the file into the scan's block up to
// len(block)/segRecordSize whole records at a time, checks each record's
// CRC32C and decodes it straight into the scan's batch. The skipped records
// [0, from) go through the same block undecoded. Header, length or checksum
// contradictions wrap ErrSegmentCorrupt and name the first bad record, with
// no update at or after it delivered: replayed segments were sealed and
// fsynced, so a bad byte is corruption, not an in-flight write.
func readSegmentFrom(fsys FS, path string, from, count int, fn func([]Update) error) error {
	fh, err := fsys.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return fmt.Errorf("stream: segment %s: %w", path, err)
	}
	defer fh.Close()
	s := scanPool.Get()
	s.fn = fn
	defer func() {
		s.fn = nil
		scanPool.Put(s)
	}()
	hdr := s.block[:segHeaderSize]
	if _, err := io.ReadFull(fh, hdr); err != nil {
		return fmt.Errorf("stream: segment %s: missing header: %w", path, ErrSegmentCorrupt)
	}
	if [segHeaderSize]byte(hdr) != segFileHeader {
		return fmt.Errorf("stream: segment %s: bad header %x: %w", path, hdr, ErrSegmentCorrupt)
	}
	perBlock := len(s.block) / segRecordSize
	for i := 0; i < from; i += perBlock {
		if _, err := io.ReadFull(fh, s.block[:min(perBlock, from-i)*segRecordSize]); err != nil {
			return fmt.Errorf("stream: segment %s truncated before record %d: %w", path, from, ErrSegmentCorrupt)
		}
	}
	for i := from; i < count; {
		got, rerr := io.ReadFull(fh, s.block[:min(perBlock, count-i)*segRecordSize])
		for b := s.block[:got-got%segRecordSize]; len(b) > 0; b = b[segRecordSize:] {
			u, ok := decodeRecord(b[:segRecordSize])
			if !ok {
				return fmt.Errorf("stream: segment %s record %d fails its checksum: %w", path, i, ErrSegmentCorrupt)
			}
			s.batch = append(s.batch, u)
			i++
			if len(s.batch) == DefaultBatchSize {
				if err := s.flush(); err != nil {
					return err
				}
			}
		}
		if rerr != nil {
			return fmt.Errorf("stream: segment %s truncated at record %d: %w", path, i, ErrSegmentCorrupt)
		}
	}
	return s.flush()
}

// scanSegment reads a segment file beyond the manifest watermark during
// recovery, returning its longest valid record prefix and whether the file
// is a complete sealed segment. A missing file reports fs.ErrNotExist; a
// file with a torn or invalid header has an empty valid prefix.
func scanSegment(fsys FS, path string, segSize int) ([]Update, bool, error) {
	fh, err := fsys.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return nil, false, err
	}
	defer fh.Close()
	data, err := io.ReadAll(io.LimitReader(fh, int64(segHeaderSize)+int64(segSize+1)*segRecordSize))
	if err != nil {
		return nil, false, err
	}
	if len(data) < segHeaderSize || [segHeaderSize]byte(data[:segHeaderSize]) != segFileHeader {
		return nil, false, nil
	}
	var recs []Update
	for off := segHeaderSize; off+segRecordSize <= len(data) && len(recs) < segSize; off += segRecordSize {
		u, ok := decodeRecord(data[off : off+segRecordSize])
		if !ok {
			break
		}
		recs = append(recs, u)
	}
	return recs, len(recs) == segSize, nil
}
