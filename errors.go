package streamcount

import (
	"errors"

	"streamcount/internal/core"
	"streamcount/internal/stream"
)

// Typed sentinel errors. Every error returned by Run and Engine.Submit / Do
// wraps exactly one of these; dispatch with errors.Is. Cancellation errors
// additionally wrap the underlying context.Canceled /
// context.DeadlineExceeded, so both checks work.
var (
	// ErrBadPattern reports a missing or unusable target pattern H.
	ErrBadPattern = core.ErrBadPattern
	// ErrBadConfig reports an invalid or underspecified query (no trial
	// budget derivable, missing degeneracy bound, non-positive threshold...).
	ErrBadConfig = core.ErrBadConfig
	// ErrReplayFailed reports a pass over the stream failing mid-replay.
	ErrReplayFailed = core.ErrReplayFailed
	// ErrCanceled reports a query abandoned by context cancellation or
	// timeout.
	ErrCanceled = core.ErrCanceled
	// ErrEngineClosed reports a Submit against a closed Engine.
	ErrEngineClosed = core.ErrEngineClosed
	// ErrUnknownStream reports a Submit naming an unregistered stream.
	ErrUnknownStream = core.ErrUnknownStream
	// ErrNotAppendable reports an Append against a stream registered as a
	// static (immutable) stream rather than an AppendableStream.
	ErrNotAppendable = core.ErrNotAppendable
	// ErrWatchClosed reports a standing query ended deliberately —
	// Subscription.Close, or a draining server — rather than by a failure.
	// It is every cleanly closed subscription's terminal error.
	ErrWatchClosed = core.ErrWatchClosed
	// ErrManifestCorrupt reports a durable stream directory whose MANIFEST
	// fails its checksum or structural validation. OpenAppendableStream
	// refuses such a directory outright rather than guessing at its
	// contents.
	ErrManifestCorrupt = stream.ErrManifestCorrupt
	// ErrSegmentCorrupt reports a sealed segment file whose header, size, or
	// record checksums contradict the manifest — surfaced by
	// OpenAppendableStream or by replaying a view over the damaged region.
	ErrSegmentCorrupt = stream.ErrSegmentCorrupt
	// ErrEvictFailed reports an append that was published but could not be
	// made (fully) durable — a failing disk under the segment directory. The
	// log remains intact and queryable; later appends retry the flush.
	ErrEvictFailed = stream.ErrEvictFailed
	// ErrReceiptFailed reports a keyed append rejected because its
	// idempotency receipt could not be journaled. Nothing was published — the
	// log is unchanged — so retrying the same key and batch is safe once the
	// disk recovers.
	ErrReceiptFailed = stream.ErrReceiptFailed
	// ErrSealed reports an append against a sealed appendable stream —
	// frozen for shipping while a cluster transfer is in flight. Nothing was
	// published; the identical batch is safe to retry once the seal lifts or
	// against the stream's new owner.
	ErrSealed = stream.ErrSealed
	// ErrQuotaExhausted reports a request rejected by per-tenant admission
	// control: the tenant's token bucket for that surface (queries, appends,
	// or watch registration) is empty. The request was not admitted; retrying
	// after the server-suggested delay (Retry-After) is safe and is what the
	// client's default retry policy does.
	ErrQuotaExhausted = errors.New("streamcount: tenant quota exhausted")
)
