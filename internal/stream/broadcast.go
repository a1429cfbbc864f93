package stream

import (
	"context"
	"fmt"
)

// Subscriber consumes the update batches of one pass. It is the stream-side
// half of the pass-engine round lifecycle: the session scheduler registers
// each runner's round, then a Broadcaster feeds one shared replay to every
// subscriber. Implementations must not retain the batch slice (the backing
// array may be reused by the next batch).
type Subscriber interface {
	ConsumeBatch(batch []Update) error
}

// Broadcaster replays one underlying stream to many subscribers at once:
// each Replay call is exactly one pass over the stream — the pass the
// session engine charges once, no matter how many subscribers ride it —
// with every batch fanned out to all subscribers in registration order
// before the next batch is read.
type Broadcaster struct {
	st Stream
}

// NewBroadcaster wraps st. Wrap st in a Counter first (and hand the Counter
// in) when the total shared pass count must be assertable from outside.
func NewBroadcaster(st Stream) *Broadcaster {
	return &Broadcaster{st: st}
}

// Replay performs one pass over the underlying stream, feeding every batch
// to each subscriber in order. It stops at the first subscriber error. A
// call with no subscribers is a no-op (no pass is consumed).
//
// Cancellation is checked between batches: when ctx is done the replay stops
// before fanning out the next batch and returns the context's error. The
// pass has then been partially consumed — callers that account passes by
// observing the underlying stream see it as one (aborted) pass.
func (b *Broadcaster) Replay(ctx context.Context, subs ...Subscriber) error {
	if len(subs) == 0 {
		return nil
	}
	return b.st.ForEachBatch(func(batch []Update) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, s := range subs {
			if err := s.ConsumeBatch(batch); err != nil {
				return fmt.Errorf("stream: broadcast subscriber %d: %w", i, err)
			}
		}
		return nil
	})
}
